//! The flag-table contract of the CLI tools: a command line that does
//! not fit a command's declared flags exits 2 naming the offending flag
//! and showing that command's usage, a switch never takes the next
//! argument as its value, the usage text lists every flag the code
//! reads, and every flag in README's command examples is one its
//! command declares.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const LEAKPROFD: &str = env!("CARGO_BIN_EXE_leakprofd");

/// Runs a tool to completion, killing it (and failing the test) if it is
/// still running after 30 s — a command line that is wrongly accepted
/// may start a daemon that never exits.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tool");
    let started = Instant::now();
    while child.try_wait().expect("poll child").is_none() {
        if started.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// Asserts a usage error: exit 2, `offender` named on stderr, followed
/// by the usage of the command `usage` names.
fn assert_usage_error(bin: &str, args: &[&str], offender: &str, usage: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(offender), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {usage}")),
        "{args:?}: {stderr}"
    );
}

const SCRAPE_ONCE: [&str; 5] = ["scrape-once", "--instances", "4", "--days", "1"];

#[test]
fn unparsable_threshold_is_rejected() {
    let args = [&SCRAPE_ONCE[..], &["--threshold", "abc"]].concat();
    assert_usage_error(LEAKPROFD, &args, "--threshold abc", "leakprofd scrape-once");
}

#[test]
fn misspelled_flag_is_rejected() {
    let args = [&SCRAPE_ONCE[..], &["--treshold", "1"]].concat();
    assert_usage_error(LEAKPROFD, &args, "--treshold", "leakprofd scrape-once");
}

#[test]
fn removed_ast_filter_flag_is_rejected() {
    let args = [&SCRAPE_ONCE[..], &["--ast-filter"]].concat();
    assert_usage_error(LEAKPROFD, &args, "--ast-filter", "leakprofd scrape-once");
}

#[test]
fn unparsable_cycles_is_rejected_before_serving() {
    let args = ["serve", "--instances", "2", "--days", "1", "--cycles", "x"];
    assert_usage_error(LEAKPROFD, &args, "--cycles x", "leakprofd serve");
}

#[test]
fn unparsable_addr_is_rejected() {
    let args = ["status", "--addr", "nothost"];
    assert_usage_error(LEAKPROFD, &args, "--addr nothost", "leakprofd status");
}

#[test]
fn corpusgen_rejects_unparsable_packages_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("leaklab-flags-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [dir.to_str().expect("utf-8 path"), "--packages", "abc"];
    assert_usage_error(
        env!("CARGO_BIN_EXE_corpusgen"),
        &args,
        "--packages abc",
        "corpusgen",
    );
    assert!(!dir.exists(), "corpusgen wrote {}", dir.display());
}

#[test]
fn a_switch_does_not_swallow_the_file_after_it() {
    let dir = std::env::temp_dir().join(format!("leaklab-flags-golint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("x.go");
    std::fs::write(
        &file,
        "package demo\n\nfunc main() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch <- 1\n\t}()\n}\n",
    )
    .expect("write x.go");
    let file = file.to_str().expect("utf-8 path");
    let golint = env!("CARGO_BIN_EXE_golint");
    let before = run(golint, &["--wrappers", file]);
    let after = run(golint, &[file, "--wrappers"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        after.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&after.stderr)
    );
    assert_eq!(before.status.code(), after.status.code());
    assert_eq!(before.stdout, after.stdout);
}

/// Every flag name `source` reads through an `Args` accessor.
fn flags_read_by(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    for accessor in [".get", ".opt", ".all", ".on"] {
        for (i, _) in source.match_indices(accessor) {
            let rest = &source[i + accessor.len()..];
            // Skip a turbofish, then take a string-literal argument.
            let rest = match rest.strip_prefix("::<") {
                Some(r) => &r[r.find(">(").map_or(0, |j| j + 1)..],
                None => rest,
            };
            if let Some(name) = rest.strip_prefix("(\"").and_then(|r| r.split('"').next()) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[test]
fn bare_leakprofd_lists_every_subcommand_and_every_flag_it_reads() {
    let out = run(LEAKPROFD, &[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for sub in [
        "serve",
        "scrape-once",
        "status",
        "top",
        "trace",
        "flame",
        "recover",
        "backtest",
        "merge",
        "fleet",
        "chaos",
        "push",
        "racecheck",
    ] {
        assert!(
            usage.contains(&format!("\nleakprofd {sub} [flags]\n")),
            "{sub} missing from\n{usage}"
        );
    }
    let read = flags_read_by(include_str!("../src/bin/leakprofd.rs"));
    assert!(read.len() >= 40, "found only {read:?}");
    for name in read.iter().map(String::as_str).chain(["keepalive"]) {
        let listed = usage
            .lines()
            .any(|l| l.split_whitespace().next() == Some(&format!("--{name}")));
        assert!(listed, "--{name} is read but not in the usage:\n{usage}");
    }
}

/// The usage block of the command `words` starts (`leakprofd serve`,
/// `golint`, ...), as its binary prints it when run without arguments.
fn usage_of(words: &[&str]) -> String {
    let bin = match words[0] {
        "mgo" => env!("CARGO_BIN_EXE_mgo"),
        "golint" => env!("CARGO_BIN_EXE_golint"),
        "leakprof-cli" => env!("CARGO_BIN_EXE_leakprof-cli"),
        "corpusgen" => env!("CARGO_BIN_EXE_corpusgen"),
        _ => LEAKPROFD,
    };
    let text = String::from_utf8(run(bin, &[]).stderr).expect("utf-8 usage");
    let head = match words {
        ["leakprofd", sub, ..] => format!("leakprofd {sub} "),
        [tool, ..] => format!("usage: {tool} "),
        [] => unreachable!("a command has a name"),
    };
    text.split("\n\n")
        .find(|block| block.starts_with(&head))
        .unwrap_or_else(|| panic!("no usage block for {head:?} in\n{text}"))
        .to_string()
}

/// Every command line in README.md's code blocks that runs one of the
/// tools, with `\` continuations joined, `# ...` comments dropped and
/// the line cut at the first redirection, pipe or `&`.
fn readme_commands() -> Vec<Vec<String>> {
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let text = std::fs::read_to_string(&readme).expect("read README.md");
    let tools = ["mgo", "golint", "leakprof-cli", "corpusgen", "leakprofd"];
    let mut commands = Vec::new();
    let mut in_block = false;
    let mut line = String::new();
    for raw in text.lines() {
        if raw.trim_start().starts_with("```") {
            in_block = !in_block;
            continue;
        }
        if !in_block {
            continue;
        }
        let code = match raw.find(" #") {
            Some(i) => &raw[..i],
            None if raw.trim_start().starts_with('#') => "",
            None => raw,
        };
        match code.trim_end().strip_suffix('\\') {
            Some(part) => line.push_str(part),
            None => {
                line.push_str(code);
                let words: Vec<String> = std::mem::take(&mut line)
                    .split_whitespace()
                    .take_while(|w| !w.starts_with(['>', '|', '&', ';']) && !w.starts_with("2>"))
                    .filter(|w| *w != "...")
                    .map(String::from)
                    .collect();
                if words.first().is_some_and(|w| tools.contains(&w.as_str())) {
                    commands.push(words);
                }
            }
        }
    }
    commands
}

#[test]
fn readme_command_examples_use_only_declared_flags() {
    let commands = readme_commands();
    assert!(commands.len() >= 30, "found only {commands:?}");
    for words in &commands {
        let words: Vec<&str> = words.iter().map(String::as_str).collect();
        let usage = usage_of(&words);
        for flag in words.iter().filter(|w| w.starts_with("--")) {
            let declared = usage
                .lines()
                .any(|l| l.split_whitespace().next() == Some(flag));
            assert!(
                declared,
                "README runs `{}`, but {flag} is not in\n{usage}",
                words.join(" ")
            );
        }
    }
}
