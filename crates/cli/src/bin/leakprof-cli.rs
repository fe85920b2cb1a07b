//! `leakprof-cli` — analyze goroutine-profile JSON files offline.
//!
//! Profiles are the JSON serialization of [`gosim::GoroutineProfile`]
//! (one file per instance, or a JSON array per file). Optionally index
//! mini-Go sources for the criterion-2 transient filter.
//!
//! ```text
//! leakprof-cli <profile.json...> [--threshold N] [--top N]
//!              [--src dir-or-file.go]... [--no-filter] [--store state.json]
//! ```
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
use leaklab_cli::{collect_go_files, flag, read_source, split_flags};
use leakprof::{Config, LeakProf};

fn main() -> ExitCode {
    match run() {
        Ok(c) | Err(c) => c,
    }
}

fn run() -> Result<ExitCode, ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (pos, flags) = split_flags(args);
    if pos.is_empty() {
        eprintln!(
            "usage: leakprof-cli <profile.json...> [--threshold N] [--top N] [--src PATH] [--no-filter] [--store state.json]"
        );
        return Err(ExitCode::from(2));
    }
    let threshold: u64 = flag(&flags, "threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let top_n: usize = flag(&flags, "top")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let ast_filter = flag(&flags, "no-filter").is_none();

    let mut lp = LeakProf::new(Config {
        threshold,
        ast_filter,
        top_n,
    });

    // Index sources for the transient filter.
    let srcs: Vec<String> = flags
        .iter()
        .filter(|(n, _)| n == "src")
        .map(|(_, v)| v.clone())
        .collect();
    for s in collect_go_files(&srcs) {
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
    for p in &pos {
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

    if let Some(store_path) = flag(&flags, "store") {
        let path = std::path::Path::new(store_path);
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
