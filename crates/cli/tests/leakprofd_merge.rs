//! `leakprofd merge` and `leakprofd recover` over state dirs written by
//! real `leakprofd serve` processes: three 1/3-slice daemons merge to
//! the byte-identical ranking of one whole-fleet daemon, and `recover`
//! on a state dir ranks exactly like `merge` on the same dir (both
//! rebuild it through the one snapshot + WAL replay).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_leakprofd");

/// Runs `leakprofd` to completion and returns its stdout; any non-zero
/// exit fails the test with the captured stderr.
fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn leakprofd");
    assert!(
        out.status.success(),
        "leakprofd {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs a 3-cycle `serve` into `dir`. The same seed makes every process
/// build the identical simulated fleet, so slice daemons and a
/// whole-fleet daemon scrape the same profiles cycle for cycle.
fn serve(dir: &Path, shard: Option<&str>) {
    let dir = dir.to_str().expect("utf-8 path");
    let mut args = vec![
        "serve",
        "--instances",
        "12",
        "--days",
        "2",
        "--seed",
        "5",
        "--cycles",
        "3",
        "--interval-ms",
        "20",
        "--state-dir",
        dir,
        "--snapshot-every",
        "2",
        "--threshold",
        "20",
        "--top",
        "10",
    ];
    if let Some(shard) = shard {
        args.extend(["--shard", shard]);
    }
    run(&args);
}

/// The ranking section of a printout: from the `=== LeakProf` header up
/// to (not including) the `ledger:` line. Ledger lines legitimately
/// differ between shards and a whole-fleet daemon: each daemon acks
/// only its own slice.
fn ranking(out: &str) -> String {
    let section: Vec<&str> = out
        .lines()
        .skip_while(|l| !l.starts_with("=== LeakProf"))
        .take_while(|l| !l.starts_with("ledger:"))
        .collect();
    assert!(
        section
            .first()
            .is_some_and(|l| l.starts_with("=== LeakProf report:")),
        "no ranking in output:\n{out}"
    );
    section.join("\n")
}

struct TempRoot(PathBuf);

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn three_shard_merge_ranks_like_the_whole_fleet_and_recover_like_merge() {
    let root =
        TempRoot(std::env::temp_dir().join(format!("leakprofd-merge-cli-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&root.0);
    let shards: Vec<PathBuf> = (0..3).map(|i| root.0.join(format!("shard{i}"))).collect();
    for (i, dir) in shards.iter().enumerate() {
        serve(dir, Some(&format!("{i}/3")));
    }
    let whole = root.0.join("whole");
    serve(&whole, None);

    let s: Vec<&str> = shards
        .iter()
        .map(|d| d.to_str().expect("utf-8 path"))
        .collect();
    let merged_out = root.0.join("merged");
    let merge3 = run(&[
        "merge",
        "--state-dir",
        s[0],
        "--state-dir",
        s[1],
        "--state-dir",
        s[2],
        "--threshold",
        "20",
        "--top",
        "10",
        "--out",
        merged_out.to_str().expect("utf-8 path"),
    ]);
    let merge1 = run(&[
        "merge",
        "--state-dir",
        whole.to_str().expect("utf-8 path"),
        "--threshold",
        "20",
        "--top",
        "10",
    ]);
    assert_eq!(
        ranking(&merge3),
        ranking(&merge1),
        "3-shard merge must rank byte-identically to the whole-fleet daemon"
    );

    let recover0 = run(&[
        "recover",
        "--state-dir",
        s[0],
        "--threshold",
        "20",
        "--top",
        "10",
    ]);
    let merge0 = run(&[
        "merge",
        "--state-dir",
        s[0],
        "--threshold",
        "20",
        "--top",
        "10",
    ]);
    assert_eq!(
        ranking(&recover0),
        ranking(&merge0),
        "recover and merge replay a state dir to the same ranking"
    );
}
