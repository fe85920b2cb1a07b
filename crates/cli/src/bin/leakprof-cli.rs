//! `leakprof-cli` — analyze goroutine-profile JSON files offline.
//!
//! Profiles are the JSON serialization of [`gosim::GoroutineProfile`]
//! (one file per instance, or a JSON array per file). Optionally index
//! mini-Go sources for the criterion-2 transient filter. Run it without
//! arguments for its flags.
//!
//! With `--store`, the sweep history is loaded/saved across invocations:
//! only NEW suspects alert, ongoing ones are deduped, and vanished
//! acknowledged issues transition to Fixed — the paper's daily-sweep
//! lifecycle.
//!
//! Exit code: 0 when no suspects, 1 when suspects are reported, 2 on
//! errors.

use std::process::ExitCode;

use gosim::GoroutineProfile;
use leaklab_cli::{collect_go_files, parse, read_source, switch, value, Spec};
use leakprof::{Config, LeakProf};

const LEAKPROF_CLI: Spec = Spec {
    synopsis: "leakprof-cli <profile.json...>",
    about: "Rank goroutine-profile JSON files; exit 0 no suspects, 1 suspects, 2 errors.",
    flags: &[
        value::<u64>("threshold", "N", "criterion-1 blocked-goroutine count").default("10000"),
        value::<usize>("top", "N", "suspects to report").default("10"),
        value::<String>("src", "PATH", "sources for the criterion-2 filter").repeated(),
        switch("no-filter", "turn the criterion-2 transient filter off"),
        value::<String>("store", "PATH", "sweep-history JSON, loaded and saved"),
    ],
};

fn main() -> ExitCode {
    match run() {
        Ok(c) | Err(c) => c,
    }
}

fn run() -> Result<ExitCode, ExitCode> {
    let args = parse(&LEAKPROF_CLI, std::env::args().skip(1));
    let mut lp = LeakProf::new(Config {
        threshold: args.get("threshold"),
        ast_filter: !args.on("no-filter"),
        top_n: args.get("top"),
    });

    // Index sources for the transient filter.
    for s in collect_go_files(&args.all("src")) {
        let text = read_source(&s)?;
        if let Err(diags) = lp.index_source(&text, &s.display().to_string()) {
            for d in diags {
                eprintln!("{}: {d}", s.display());
            }
            return Err(ExitCode::from(2));
        }
    }

    // Load profiles: each file holds one profile or an array of them.
    let mut profiles: Vec<GoroutineProfile> = Vec::new();
    for p in &args.positional {
        let text = read_source(std::path::Path::new(p))?;
        if let Ok(many) = serde_json::from_str::<Vec<GoroutineProfile>>(&text) {
            profiles.extend(many);
        } else {
            match serde_json::from_str::<GoroutineProfile>(&text) {
                Ok(one) => profiles.push(one),
                Err(e) => {
                    eprintln!("error: {p} is not a goroutine profile: {e}");
                    return Err(ExitCode::from(2));
                }
            }
        }
    }

    let report = lp.analyze(&profiles);
    print!("{}", report.render());

    if let Some(store_path) = args.opt::<String>("store") {
        let path = std::path::Path::new(&store_path);
        let mut store = if path.exists() {
            match leakprof::SweepStore::from_json(&read_source(path)?) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: bad store {store_path}: {e}");
                    return Err(ExitCode::from(2));
                }
            }
        } else {
            leakprof::SweepStore::new()
        };
        let delta = store.record_sweep(&report);
        println!(
            "sweep {}: {} new, {} ongoing, {} vanished",
            store.sweeps(),
            delta.new.len(),
            delta.ongoing.len(),
            delta.vanished.len()
        );
        for op in &delta.new {
            println!("  NEW      {op}");
        }
        for op in &delta.vanished {
            println!("  VANISHED {op}");
        }
        let (reported, acked, fixed, rejected) = store.lifecycle();
        println!(
            "lifecycle: {reported} reported, {acked} acknowledged, {fixed} fixed, {rejected} rejected"
        );
        if let Err(e) = durable::write_atomic(path, store.to_json().as_bytes()) {
            eprintln!("error: cannot write {store_path}: {e}");
            return Err(ExitCode::from(2));
        }
    }

    if report.suspects.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}
