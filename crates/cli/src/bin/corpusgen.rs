//! `corpusgen` — materialize a ground-truth-labelled synthetic monorepo
//! on disk. Run it without arguments for its flags.
//!
//! Writes `<out>/<pkg>/*.go`, `<out>/TRUTH.json` (leak labels), and
//! `<out>/OWNERS.tsv`, then prints summary statistics.

use std::path::PathBuf;
use std::process::ExitCode;

use corpus::{census, Corpus, CorpusConfig, KindMix};
use leaklab_cli::{parse, switch, value, Spec};

const CORPUSGEN: Spec = Spec {
    synopsis: "corpusgen <out-dir>",
    about: "Write a labelled synthetic corpus (sources, TRUTH.json, OWNERS.tsv) to <out-dir>.",
    flags: &[
        value::<usize>("packages", "N", "packages to generate").default("200"),
        value::<u64>("seed", "S", "generator seed").default("3168"),
        value::<f64>("leak-rate", "F", "share of sites with an injected leak").default("0.18"),
        switch("heavy", "concurrency-heavy kind mix"),
    ],
};

fn main() -> ExitCode {
    let args = parse(&CORPUSGEN, std::env::args().skip(1));
    let config = CorpusConfig {
        packages: args.get("packages"),
        seed: args.get("seed"),
        leak_rate: args.get("leak-rate"),
        mix: if args.on("heavy") {
            KindMix::concurrent_heavy()
        } else {
            KindMix::default()
        },
        ..CorpusConfig::default()
    };
    let repo = Corpus::generate(config);
    let root = PathBuf::from(&args.positional[0]);
    if let Err(e) = repo.write_to_dir(&root) {
        eprintln!("error: writing {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let c = census(&repo);
    let (src, tst) = repo.eloc();
    println!(
        "wrote {} packages ({} source files, {} test files, {} + {} ELoC) to {}",
        repo.packages.len(),
        c.files_source,
        c.files_test,
        src,
        tst,
        root.display()
    );
    println!(
        "ground truth: {} injected leak sites (TRUTH.json); owners in OWNERS.tsv",
        repo.truth.len()
    );
    ExitCode::SUCCESS
}
