//! End-to-end observability tests for the `leakprofd` binary: the
//! dogfood loop (`scrape-once` ranking the serving daemon's own
//! blocking sites via `/debug/self`), the `/trace` ⇄ Chrome
//! trace-event round trip, and the `top` dashboard.

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_leakprofd");

/// Kills the daemon on drop so a panicking test never leaks a child.
struct ServeGuard {
    child: Child,
    addr: SocketAddr,
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `leakprofd serve` on an ephemeral port and parses the bound
/// endpoint address out of its startup banner.
fn spawn_serve() -> ServeGuard {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--instances",
            "3",
            "--days",
            "1",
            "--seed",
            "11",
            "--cycles",
            "0",
            "--interval-ms",
            "50",
            "--port",
            "0",
            "--threshold",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn leakprofd serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("banner before EOF")
            .expect("readable stdout");
        if let Some(rest) = line.split("on http://").nth(1) {
            let addr = rest.split_whitespace().next().expect("addr token");
            break addr.parse().expect("bound address parses");
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    ServeGuard { child, addr }
}

fn get(addr: SocketAddr, path: &str) -> String {
    let body = collector::http_get(
        addr,
        path,
        Duration::from_millis(1000),
        Duration::from_millis(2000),
    )
    .unwrap_or_else(|e| panic!("GET {path}: {e}"));
    String::from_utf8(body).expect("utf-8 body")
}

/// Waits until the daemon has finished at least `n` cycles.
fn wait_for_cycles(addr: SocketAddr, n: u64) {
    for _ in 0..200 {
        let status: collector::DaemonStatus =
            serde_json::from_str(&get(addr, "/status")).expect("status parses");
        if status.cycles >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never reached {n} cycles");
}

#[test]
fn self_scrape_ranks_the_daemons_own_blocking_sites() {
    let serve = spawn_serve();
    wait_for_cycles(serve.addr, 2);

    // The daemon's /debug/self is a fleet-shaped profile, so the stock
    // scrape-once flow (discover /instances, scrape, rank) runs against
    // the daemon unchanged and must produce a non-empty ranking over
    // the daemon's own blocking sites.
    let out = Command::new(BIN)
        .args([
            "scrape-once",
            "--addr",
            &serve.addr.to_string(),
            "--threshold",
            "1",
        ])
        .output()
        .expect("run scrape-once");
    assert!(out.status.success(), "scrape-once failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("POTENTIAL GOROUTINE LEAK"),
        "no ranking in:\n{stdout}"
    );
    // The endpoint pool workers idle on their dispatch channel; that
    // blocking site must be in the ranking, attributed to real source.
    assert!(
        stdout.contains("collector/src/http.rs"),
        "self-profile sites missing in:\n{stdout}"
    );
    assert!(
        stdout.contains("scraped 1/1 targets"),
        "bad stats:\n{stdout}"
    );
}

#[test]
fn trace_round_trips_through_the_chrome_exporter() {
    let serve = spawn_serve();
    wait_for_cycles(serve.addr, 3);

    // One fetch, then a pure round trip on that snapshot: what /trace
    // serves must survive to_chrome → from_chrome losslessly.
    let snapshot: obs::TraceSnapshot =
        serde_json::from_str(&get(serve.addr, "/trace")).expect("trace parses");
    assert!(!snapshot.cycles.is_empty(), "no retained cycles");
    for cycle in &snapshot.cycles {
        let root = cycle
            .spans
            .iter()
            .find(|s| s.stage == obs::stage::CYCLE)
            .expect("cycle root span");
        assert!(
            cycle
                .spans
                .iter()
                .any(|s| s.stage == obs::stage::TARGET && s.parent != root.id),
            "target spans must nest under scrape, not the root"
        );
    }
    let chrome = obs::to_chrome(&snapshot);
    let back = obs::from_chrome(&chrome).expect("exporter output re-imports");
    assert_eq!(back, snapshot.cycles, "chrome round trip must be lossless");

    // The `trace --out` subcommand writes that same importable format.
    let out_path =
        std::env::temp_dir().join(format!("leakprofd-trace-{}.json", std::process::id()));
    let out = Command::new(BIN)
        .args([
            "trace",
            "--addr",
            &serve.addr.to_string(),
            "--out",
            out_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run trace");
    assert!(out.status.success(), "trace failed: {out:?}");
    let exported = std::fs::read_to_string(&out_path).expect("trace file written");
    let cycles = obs::from_chrome(&exported).expect("trace file re-imports");
    assert!(!cycles.is_empty());
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn top_renders_one_dashboard_frame() {
    let serve = spawn_serve();
    wait_for_cycles(serve.addr, 2);

    let out = Command::new(BIN)
        .args([
            "top",
            "--addr",
            &serve.addr.to_string(),
            "--frames",
            "1",
            "--refresh-ms",
            "10",
        ])
        .output()
        .expect("run top");
    assert!(out.status.success(), "top failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("leakprofd top —"),
        "header missing:\n{stdout}"
    );
    for needle in ["cycles ", "breakers  closed", "conns     reused", "stage"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // Keep-alive defaults on in serve mode: after two cycles against a
    // live fleet the pool must be reusing connections.
    let status: collector::DaemonStatus =
        serde_json::from_str(&get(serve.addr, "/status")).expect("status parses");
    assert!(
        status.keepalive.reused > 0,
        "no reuse: {:?}",
        status.keepalive
    );
    // And the per-stage table must cover the whole pipeline.
    let stages: Vec<&str> = status.stages.iter().map(|s| s.stage.as_str()).collect();
    for want in [
        obs::stage::CYCLE,
        obs::stage::SCRAPE,
        obs::stage::TARGET,
        obs::stage::INGEST,
        obs::stage::ANALYZE,
        obs::stage::LEDGER,
    ] {
        assert!(
            stages.contains(&want),
            "stage {want} missing from {stages:?}"
        );
    }
}

#[test]
fn live_differential_and_self_flames_over_a_leaking_fleet() {
    let serve = spawn_serve();
    // The serve loop advances the demo fleet a day per cycle, so the
    // leak sites' blocked populations grow the whole run; by cycle 8
    // the trend classifier calls them regressing.
    wait_for_cycles(serve.addr, 8);

    // Live folded stacks blame the seeded leak sites, root-first.
    assert!(get(serve.addr, "/flame.txt").contains("handler.go"));
    // The HTML document is self-contained and colors the regressing
    // subtrees from the /health verdicts.
    let html = get(serve.addr, "/flame");
    assert!(html.contains("<svg"), "no svg in /flame");
    assert!(
        html.contains(r#"data-health="regressing""#),
        "no regressing subtree in /flame"
    );
    // The differential window isolates growth: the fleet grew every
    // cycle, so the window is non-empty and lands on the leak sites.
    let diff = get(serve.addr, "/flame.txt?from=2&to=5");
    assert!(!diff.is_empty() && diff.contains("handler.go"), "{diff}");
    // A flat self-window must 400, not render garbage.
    let flat = collector::http_get(
        serve.addr,
        "/flame.txt?from=5",
        Duration::from_millis(1000),
        Duration::from_millis(2000),
    );
    assert!(
        matches!(flat, Err(collector::HttpError::Status(400))),
        "{flat:?}"
    );
    // The daemon's own self-flame folds worker wait stacks.
    assert!(get(serve.addr, "/flame/self.txt").contains("worker"));

    // The CLI fetches both views to files.
    let addr = serve.addr.to_string();
    let dir = std::env::temp_dir().join(format!("leakprofd-flame-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("flame dir");
    let html_path = dir.join("flame.html");
    let diff_path = dir.join("diff.txt");
    let flame = |args: &[&str]| {
        Command::new(BIN)
            .args(["flame", "--addr", &addr])
            .args(args)
            .output()
            .expect("run flame")
    };
    let out = flame(&["--out", html_path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "flame --out failed: {out:?}");
    let written = std::fs::read_to_string(&html_path).expect("flame.html written");
    assert!(written.contains("<svg"));
    let diff_args = ["--txt", "--from", "2", "--to", "5", "--out"];
    let out = flame(&[&diff_args[..], &[diff_path.to_str().expect("utf-8 path")]].concat());
    assert!(
        out.status.success(),
        "flame --txt --from --to failed: {out:?}"
    );
    let written = std::fs::read_to_string(&diff_path).expect("diff.txt written");
    assert!(written.contains("handler.go"), "{written}");
    std::fs::remove_dir_all(&dir).ok();

    // The differential needs both ends, and the self flame has none.
    for args in [&["--from", "2"][..], &["--self", "--from", "2"][..]] {
        let out = flame(args);
        assert_eq!(out.status.code(), Some(2), "flame {args:?}: {out:?}");
    }
}
