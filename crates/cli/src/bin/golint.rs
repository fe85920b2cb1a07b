//! `golint` — run the static partial-deadlock analyzers over `.go` files.
//! Run it without arguments for its flags.

use std::process::ExitCode;

use leaklab_cli::{collect_go_files, parse, read_source, switch, usage_error, value, Spec};
use staticlint::absint::{AbsInt, AbsIntConfig};
use staticlint::modelcheck::ModelCheck;
use staticlint::pathcheck::{PathCheck, PathCheckConfig};
use staticlint::{Analyzer, Interproc, RangeClose};

const GOLINT: Spec = Spec {
    synopsis: "golint <files-or-dirs...>",
    about: "Run the static partial-deadlock analyzers; exit 0 clean, 1 findings, 2 errors.",
    flags: &[
        value::<String>(
            "tool",
            "NAME",
            "pathcheck|absint|modelcheck|rangeclose|interproc|all",
        )
        .default("all"),
        switch("wrappers", "recognize spawns through wrapper functions"),
    ],
};

fn main() -> ExitCode {
    let args = parse(&GOLINT, std::env::args().skip(1));
    let files = collect_go_files(&args.positional);
    if files.is_empty() {
        usage_error(&GOLINT, "no .go files in the given paths");
    }
    let tool: String = args.get("tool");
    let wrappers = args.on("wrappers");

    let mut analyzers: Vec<Box<dyn Analyzer>> = Vec::new();
    if tool == "all" || tool == "pathcheck" {
        analyzers.push(Box::new(PathCheck {
            config: PathCheckConfig {
                follow_wrappers: wrappers,
            },
        }));
    }
    if tool == "all" || tool == "absint" {
        analyzers.push(Box::new(AbsInt {
            config: AbsIntConfig {
                follow_wrappers: wrappers,
            },
        }));
    }
    if tool == "all" || tool == "modelcheck" {
        analyzers.push(Box::new(ModelCheck::new()));
    }
    if tool == "all" || tool == "rangeclose" {
        analyzers.push(Box::new(RangeClose::new()));
    }
    if tool == "all" || tool == "interproc" {
        analyzers.push(Box::new(Interproc::new()));
    }
    if analyzers.is_empty() {
        eprintln!("error: unknown tool {tool}");
        return ExitCode::from(2);
    }

    let mut parsed = Vec::new();
    for f in &files {
        let src = match read_source(f) {
            Ok(s) => s,
            Err(code) => return code,
        };
        match minigo::parse_file(&src, &f.display().to_string()) {
            Ok(ast) => parsed.push(ast),
            Err(diags) => {
                for d in diags {
                    eprintln!("{}: {d}", f.display());
                }
                return ExitCode::from(2);
            }
        }
    }

    let mut total = 0;
    for a in &analyzers {
        for finding in a.analyze_files(&parsed) {
            println!("{finding}");
            total += 1;
        }
    }
    if total == 0 {
        println!("clean: no potential partial deadlocks found");
        ExitCode::SUCCESS
    } else {
        println!("{total} finding(s)");
        ExitCode::from(1)
    }
}
