//! `mgo` — compile and run mini-Go programs on the simulated runtime.
//! Run it without arguments for its commands and flags.

use std::path::PathBuf;
use std::process::ExitCode;

use gosim::Runtime;
use leaklab_cli::{collect_go_files, parse, read_source, usage_error, value, Spec};

const MGO: Spec = Spec {
    synopsis: "mgo <run|leaks|dump> <files...>",
    about: "Run mini-Go files: print stats, the goleak verdict (exit 1 on leaks) or the profile.",
    flags: &[
        value::<String>("func", "pkg.F", "entry (default: main, else the only func)"),
        value::<u64>("seed", "N", "scheduler seed").default("0"),
        value::<u64>("ticks", "T", "virtual ticks to advance after blocking").default("10000"),
    ],
};

fn main() -> ExitCode {
    let args = parse(&MGO, std::env::args().skip(1));
    let (cmd, files) = args.positional.split_first().expect("parse requires one");
    let files = collect_go_files(files);
    if !["run", "leaks", "dump"].contains(&cmd.as_str()) || files.is_empty() {
        usage_error(&MGO, "want run, leaks or dump, then .go files");
    }

    let mut sources = Vec::new();
    for f in &files {
        let src = match read_source(f) {
            Ok(s) => s,
            Err(code) => return code,
        };
        sources.push((src, f.display().to_string()));
    }
    let prog = match minigo::compile_many(&sources) {
        Ok(p) => p,
        Err(diags) => {
            for d in diags {
                eprintln!("error: {d}");
            }
            return ExitCode::from(2);
        }
    };

    // Pick the entry: --func, else `main`, else the only zero-arg func.
    let entry = match args.opt::<String>("func") {
        Some(f) => f,
        None => {
            if prog.func("main").is_some() {
                "main".to_string()
            } else {
                let mut names: Vec<&str> = prog.func_names().collect();
                names.sort_unstable();
                match names.as_slice() {
                    [one] => one.to_string(),
                    _ => {
                        eprintln!(
                            "error: multiple functions; pick one with --func (have: {})",
                            names.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
        }
    };

    let mut rt = Runtime::with_seed(args.get("seed"));
    if prog.spawn_func(&mut rt, &entry, vec![]).is_none() {
        eprintln!("error: no function named {entry}");
        return ExitCode::from(2);
    }
    rt.run_until_blocked(1_000_000);
    rt.advance(args.get("ticks"), 1_000_000);

    match cmd.as_str() {
        "run" => {
            let stats = rt.stats();
            println!(
                "done: {} goroutines spawned, {} completed, {} panicked, {} messages, {} live",
                stats.spawned,
                stats.completed,
                stats.panicked,
                stats.msgs_transferred,
                rt.live_count()
            );
            for e in rt.exits().iter().filter(|e| e.panic.is_some()) {
                println!(
                    "  panic in {}: {}",
                    e.name,
                    e.panic.as_deref().unwrap_or("")
                );
            }
            ExitCode::SUCCESS
        }
        "leaks" => {
            let leaks = goleak::find_with_retry(&mut rt, &goleak::Options::default());
            if leaks.is_empty() {
                println!("no goroutine leaks");
                return ExitCode::SUCCESS;
            }
            println!("{} goroutine leak(s):", leaks.len());
            for l in &leaks {
                println!("  {l}");
            }
            ExitCode::from(1)
        }
        _ => {
            let name = files
                .first()
                .map(|p: &PathBuf| p.display().to_string())
                .unwrap_or_else(|| "mgo".into());
            print!("{}", rt.goroutine_profile(name).render());
            ExitCode::SUCCESS
        }
    }
}
