//! The repository benchmark: four workloads driving `leakprofd` and the
//! GOLEAK CI gate through their public entry points.
//!
//! ```text
//! perfbench --workload <pull_fleet|push_ingest|fleet_poll|goleak_ci>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it makes an untraced pass and then a traced pass over the
//! same inputs, checks that both rank (or judge) identically, and reports
//! the per-layer metrics from the traced pass's spans, which it writes to
//! `<out>/<workload>-seed<n>.trace.json`. Human-readable lines come
//! first; the last line of standard output is one JSON object. The exit
//! code is 0 only when every correctness check passed.

mod alloc;
mod fleet_poll;
mod goleak_ci;
mod mirror;
mod pull_fleet;
mod push_ingest;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Which quantity each one is for a given workload is listed in
/// `WORKLOADS.md` (for example `op_p50_ms` is the cycle p50 of
/// `pull_fleet` and the push-ack p50 of `push_ingest`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("scrape.cycle_ms", "ms"),
    ("scrape.fetch_us", "us"),
    ("scrape.fetch.allocs", "count"),
    ("scrape.decode_us", "us"),
    ("scrape.decode.allocs", "count"),
    ("scrape.body_bytes", "bytes"),
    ("generator.service_us", "us"),
    ("generator.late_ms", "ms"),
    ("http.request_us", "us"),
    ("ingest.push_us", "us"),
    ("ingest.push.allocs", "count"),
    ("ingest.admitted", "count"),
    ("ingest.shed", "count"),
    ("ingest.coalesced", "count"),
    ("ingest.drain_ms", "ms"),
    ("ingest.drain.allocs", "count"),
    ("leakprof.ingest_ms", "ms"),
    ("leakprof.ingest.allocs", "count"),
    ("leakprof.report_ms", "ms"),
    ("leakprof.report.allocs", "count"),
    ("leakprof.instances", "count"),
    ("leakprof.sites", "count"),
    ("ledger.apply_ms", "ms"),
    ("ledger.apply.allocs", "count"),
    ("ledger.bytes", "bytes"),
    ("timeseries.append_ms", "ms"),
    ("timeseries.append.allocs", "count"),
    ("timeseries.points", "count"),
    ("health.classify_ms", "ms"),
    ("health.classify.allocs", "count"),
    ("static_tier.sync_ms", "ms"),
    ("static_tier.sync.allocs", "count"),
    ("static_tier.cache_misses", "count"),
    ("snapshot.wal_append_ms", "ms"),
    ("snapshot.wal_append.allocs", "count"),
    ("snapshot.wal_bytes", "bytes"),
    ("snapshot.commit_ms", "ms"),
    ("snapshot.commit.allocs", "count"),
    ("snapshot.bytes", "bytes"),
    ("fleet_tier.poll_ms", "ms"),
    ("fleet_tier.fetch_us", "us"),
    ("fleet_tier.fetch.allocs", "count"),
    ("fleet_tier.decode_us", "us"),
    ("fleet_tier.decode.allocs", "count"),
    ("fleet_tier.snapshot_bytes", "bytes"),
    ("fleet_tier.serve_us", "us"),
    ("merge.fold_ms", "ms"),
    ("merge.fold.allocs", "count"),
    ("gosim.run_us", "us"),
    ("gosim.run.allocs", "count"),
    ("gosim.slices", "count"),
    ("minigo.compile_us", "us"),
    ("minigo.compile.allocs", "count"),
    ("goleak.verify_us", "us"),
    ("goleak.settle_us", "us"),
    ("goleak.settle.allocs", "count"),
    ("goleak.settle_slices", "count"),
    ("goleak.profile_us", "us"),
    ("goleak.profile.allocs", "count"),
    ("goleak.leaks", "count"),
    ("ci.package_us", "us"),
    ("ci.package.allocs", "count"),
    ("cycle.unattributed_ms", "ms"),
    ("fleet_tier.unattributed_ms", "ms"),
    ("ci.unattributed_us", "us"),
    ("state_bytes", "bytes"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Span name → (duration metric, µs divisor, allocation metric). Every
/// traced call the workloads make is listed here.
const SPAN_METRICS: &[(&str, &str, f64, Option<&str>)] = &[
    ("scrape.cycle", "scrape.cycle_ms", 1e3, None),
    (
        "scrape.fetch",
        "scrape.fetch_us",
        1.0,
        Some("scrape.fetch.allocs"),
    ),
    (
        "scrape.decode",
        "scrape.decode_us",
        1.0,
        Some("scrape.decode.allocs"),
    ),
    (
        "ingest.push",
        "ingest.push_us",
        1.0,
        Some("ingest.push.allocs"),
    ),
    (
        "ingest.drain",
        "ingest.drain_ms",
        1e3,
        Some("ingest.drain.allocs"),
    ),
    (
        "leakprof.ingest",
        "leakprof.ingest_ms",
        1e3,
        Some("leakprof.ingest.allocs"),
    ),
    (
        "leakprof.report",
        "leakprof.report_ms",
        1e3,
        Some("leakprof.report.allocs"),
    ),
    (
        "ledger.apply",
        "ledger.apply_ms",
        1e3,
        Some("ledger.apply.allocs"),
    ),
    (
        "timeseries.append",
        "timeseries.append_ms",
        1e3,
        Some("timeseries.append.allocs"),
    ),
    (
        "health.classify",
        "health.classify_ms",
        1e3,
        Some("health.classify.allocs"),
    ),
    (
        "static_tier.sync",
        "static_tier.sync_ms",
        1e3,
        Some("static_tier.sync.allocs"),
    ),
    (
        "snapshot.wal_append",
        "snapshot.wal_append_ms",
        1e3,
        Some("snapshot.wal_append.allocs"),
    ),
    (
        "snapshot.commit",
        "snapshot.commit_ms",
        1e3,
        Some("snapshot.commit.allocs"),
    ),
    ("fleet_tier.poll", "fleet_tier.poll_ms", 1e3, None),
    (
        "fleet_tier.fetch",
        "fleet_tier.fetch_us",
        1.0,
        Some("fleet_tier.fetch.allocs"),
    ),
    (
        "fleet_tier.decode",
        "fleet_tier.decode_us",
        1.0,
        Some("fleet_tier.decode.allocs"),
    ),
    (
        "merge.fold",
        "merge.fold_ms",
        1e3,
        Some("merge.fold.allocs"),
    ),
    ("gosim.run", "gosim.run_us", 1.0, Some("gosim.run.allocs")),
    (
        "minigo.compile",
        "minigo.compile_us",
        1.0,
        Some("minigo.compile.allocs"),
    ),
    ("goleak.verify", "goleak.verify_us", 1.0, None),
    (
        "goleak.settle",
        "goleak.settle_us",
        1.0,
        Some("goleak.settle.allocs"),
    ),
    (
        "ci.package",
        "ci.package_us",
        1.0,
        Some("ci.package.allocs"),
    ),
    (
        "goleak.profile",
        "goleak.profile_us",
        1.0,
        Some("goleak.profile.allocs"),
    ),
];

/// What one workload run established.
#[derive(Default)]
pub struct Outcome {
    checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Sets a metric; `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(key, value);
    }

    /// Adds a human-readable report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Adds the `<name>_p50_<unit>` and `<name>_tail_<unit>` lines of
    /// `samples` (in the order taken): the whole run's tail with its
    /// percentile and sample count, and the windowed tail reported as
    /// `op_tail_ms`. Returns `(p50, windowed tail)`.
    pub fn dist_lines(&mut self, name: &str, samples: &[f64], unit: &str) -> (f64, f64) {
        let d = stats::Dist::new(samples.to_vec());
        let (q, t) = d.tail();
        let windowed = stats::windowed_tail(samples);
        self.line(format!(
            "{name}_p50_{unit} = {:.4} {unit} (n={})",
            d.median(),
            d.len()
        ));
        self.line(format!(
            "{name}_tail_{unit} = {t:.4} {unit} (p{q:.2} of n={}); windowed {windowed:.4} {unit}",
            d.len()
        ));
        (d.median(), windowed)
    }

    /// Sets every duration and allocation metric of the spans recorded.
    pub fn set_layers(&mut self, layers: &trace::Layers) {
        for (span, metric, div, allocs) in SPAN_METRICS {
            if layers.calls(span) == 0 {
                continue;
            }
            self.set(metric, layers.p50_us(span) / div);
            if let Some(a) = allocs {
                self.set(a, layers.allocs(span));
            }
        }
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Settings shared by every workload.
pub struct RunConfig {
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    /// Scratch directory for state dirs and sources; removed at exit.
    pub work: PathBuf,
    /// Where the traced pass writes its spans.
    pub spans: PathBuf,
}

/// Tracing overhead: how much slower the traced pass's median operation
/// ran than the untraced pass's, in percent.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <pull_fleet|push_ingest|fleet_poll|goleak_ci> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else {
            usage(&format!("unexpected argument {k}"));
        };
        let Some(v) = it.next() else {
            usage(&format!("{k} needs a value"));
        };
        flags.insert(name.to_string(), v.clone());
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = get("workload").unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = get("seed")
        .unwrap_or("1")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a non-negative integer"));
    let seconds: f64 = get("seconds")
        .unwrap_or("10")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
        .unwrap_or_else(|| usage("--seconds must be in (0, 60]"));
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let out = PathBuf::from(get("out").unwrap_or(".bench_out"));
    let work = out.join(format!("work-{workload}-{}", std::process::id()));
    let cfg = RunConfig {
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace,
        work: work.clone(),
        spans: out.join(format!("{workload}-seed{seed}.trace.json")),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let mut o = Outcome::default();
    let result = match workload {
        "pull_fleet" => pull_fleet::run(&cfg, &mut o),
        "push_ingest" => push_ingest::run(&cfg, &mut o),
        "fleet_poll" => fleet_poll::run(&cfg, &mut o),
        "goleak_ci" => goleak_ci::run(&cfg, &mut o),
        other => usage(&format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    // A workload may have taken its own reading at a steadier point.
    if !o.metrics.contains_key("rss_peak_mb") {
        o.set("rss_peak_mb", rss_peak_mb());
    }
    let attempted = o.attempted.max(1);
    o.set("error_rate", o.failed as f64 / attempted as f64);

    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    for l in &o.lines {
        println!("  {l}");
    }
    for (what, ok) in &o.checks {
        println!("  check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (name, unit) in wanted {
        let value = o.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name} = {value} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = o.correct();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{json}}}}}",
        o.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
