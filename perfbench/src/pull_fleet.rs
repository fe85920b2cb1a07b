//! `pull_fleet`: a closed loop of back-to-back `Daemon::run_cycle` calls
//! by a whole-fleet daemon with production defaults, a state dir and a
//! static tier, scraping a frozen demo fleet served by [`FleetServer`].
//! The work per cycle stays constant, so anything that grows with uptime
//! shows as growth in the tail, the state dir and the peak RSS.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use collector::breaker::Decision;
use collector::{
    http_get_with, BreakerConfig, BreakerSet, CycleStats, Daemon, DaemonConfig, DemoFleet,
    ScrapeConfig, ScrapeTarget, StaticTierConfig,
};
use gosim::GoroutineProfile;
use leakprof::Report;

use crate::mirror::{dir_bytes, Mirror};
use crate::server::FleetServer;
use crate::stats::{median, Dist};
use crate::trace::{write_chrome, Layers, Recorder};
use crate::{overhead_pct, Outcome, RunConfig};

pub const INSTANCES: usize = 240;
pub const DAYS: u32 = 2;
/// Below the smallest leak site's per-instance count in one sweep (16
/// for the geo handler after two days), so all three leak sites rank
/// from the first cycle on; the fleet has no other blocking sites.
pub const THRESHOLD: u64 = 10;
pub const TOP: usize = 10;
const SETUPS: usize = 3;

/// The ranked sites of `report` as `(file, line)`.
fn ranked_sites(report: &Report) -> BTreeSet<(String, u32)> {
    report
        .suspects
        .iter()
        .map(|s| (s.stats.op.loc.file.to_string(), s.stats.op.loc.line))
        .collect()
}

fn daemon_config(state: &Path, src: &Path) -> DaemonConfig {
    DaemonConfig {
        state_dir: Some(state.to_path_buf()),
        static_tier: Some(StaticTierConfig::in_state_dir(src.to_path_buf(), state)),
        ..DaemonConfig::default()
    }
}

pub fn run(cfg: &RunConfig, o: &mut Outcome) -> Result<(), String> {
    let demo = DemoFleet::build(INSTANCES, DAYS, cfg.seed);
    let profiles = demo.fleet.collect_profiles();
    let server = FleetServer::start(&profiles).map_err(|e| format!("generator: {e}"))?;
    let targets = demo.targets(server.addr());
    let src = cfg.work.join("src");
    demo.write_sources(&src)
        .map_err(|e| format!("sources: {e}"))?;
    let expected: BTreeSet<(String, u32)> = demo.leak_sites.iter().cloned().collect();
    let sweep_bytes: usize = profiles
        .iter()
        .map(|p| serde_json::to_string(p).map_or(0, |s| s.len()))
        .sum();
    let goroutines: usize = profiles.iter().map(|p| p.goroutines.len()).sum();
    o.line(format!(
        "fleet: {} instances, {} goroutines, {} bytes of profile JSON per sweep",
        targets.len(),
        goroutines,
        sweep_bytes
    ));

    // Set-up: daemon construction (recovery of an empty state dir, the
    // static tier's cold parse) and the first, cold cycle, repeated on
    // fresh state dirs.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    // One more set-up than measured: the first warms the process.
    for i in 0..=SETUPS {
        let state = cfg.work.join(format!("state{i}"));
        let t = Instant::now();
        let mut d = Daemon::new(
            daemon_config(&state, &src),
            demo.leakprof(THRESHOLD, TOP),
            targets.clone(),
        )
        .map_err(|e| format!("daemon: {e}"))?;
        d.run_cycle();
        if i > 0 {
            setup_s.push(t.elapsed().as_secs_f64());
        }
        if let Some((old, old_state)) = daemon.replace((d, state)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_state);
        }
    }
    let (mut daemon, state) = daemon.expect("at least one set-up");
    o.set("setup_s", median(&setup_s));
    let warm = daemon.last_report().expect("warm-up cycle ranked");
    let mut wrong_cycles = usize::from(ranked_sites(warm) != expected);
    let mut renders = vec![warm.render()];

    // Untraced pass: the whole run, or half of it when a traced pass
    // follows.
    let budget = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let mut cycle_ms = Vec::new();
    let mut profiles_total = 0usize;
    // The state dir's size right after the last snapshot commit, when
    // the WAL has just been truncated.
    let mut state_bytes = 0;
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        let t = Instant::now();
        let report = daemon.run_cycle();
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        o.attempted += targets.len() as u64;
        o.failed += (report.errors.len() + report.skipped.len()) as u64;
        profiles_total += report.profiles.len();
        let ranking = daemon.last_report().expect("cycle ranked");
        let got = ranked_sites(ranking);
        if got != expected {
            if wrong_cycles == 0 {
                o.line(format!(
                    "cycle {}: ranked {got:?}, expected {expected:?}",
                    cycle_ms.len()
                ));
            }
            wrong_cycles += 1;
        }
        if cfg.trace {
            renders.push(ranking.render());
        }
        if daemon
            .health()
            .cycles
            .is_multiple_of(DaemonConfig::default().snapshot_every)
        {
            state_bytes = dir_bytes(&state);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    o.check(
        format!(
            "ranking equals the fleet's {} injected leak sites at every one of {} cycles",
            expected.len(),
            cycle_ms.len()
        ),
        wrong_cycles == 0 && !cycle_ms.is_empty(),
    );
    o.set("state_bytes", state_bytes as f64);
    o.line(format!(
        "setup_s = {:.4} s (median of {SETUPS} daemon constructions plus cold first cycle)",
        median(&setup_s)
    ));
    let (p50, tail) = o.dist_lines("cycle", &cycle_ms, "ms");
    o.line(format!(
        "profiles_per_s = {:.1} 1/s; state_bytes = {state_bytes} bytes after {} cycles",
        profiles_total as f64 / elapsed,
        cycle_ms.len()
    ));
    if !cfg.trace {
        o.set("op_p50_ms", p50);
        o.set("op_tail_ms", tail);
        o.set("throughput_per_s", profiles_total as f64 / elapsed);
    }
    drop(daemon);

    if cfg.trace {
        traced(cfg, o, &demo, &targets, &src, &renders, p50)?;
    }
    let service = Dist::new(server.stop());
    o.line(format!(
        "generator service time: {}",
        service.describe("us")
    ));
    o.set("generator.service_us", service.median());
    Ok(())
}

/// The traced pass: as many mirrored cycles as the untraced pass ran,
/// from a fresh state dir, each ranking compared with the untraced one.
fn traced(
    cfg: &RunConfig,
    o: &mut Outcome,
    demo: &DemoFleet,
    targets: &[ScrapeTarget],
    src: &Path,
    renders: &[String],
    untraced_p50_ms: f64,
) -> Result<(), String> {
    let state = cfg.work.join("traced");
    let rec = Recorder::new();
    let mut mirror = Mirror::open(
        &state,
        demo.leakprof(THRESHOLD, TOP),
        Some(StaticTierConfig::in_state_dir(src.to_path_buf(), &state)),
    )
    .map_err(|e| format!("mirror: {e}"))?;
    let mut breakers = BreakerSet::new(BreakerConfig::default());
    let scrape_cfg = ScrapeConfig::default();
    let mut mismatches = 0usize;
    let mut body_bytes = Vec::new();
    let (mut wal_bytes, mut points) = (Vec::new(), Vec::new());
    let mut misses = 0u64;
    for expected in renders {
        let mut bytes = 0u64;
        let (report, gauges) = mirror.cycle(&rec, None, |rec, op| {
            let (profiles, stats, b) = scrape(rec, op, targets, &mut breakers, &scrape_cfg);
            bytes = b;
            (profiles, stats)
        });
        body_bytes.push(bytes as f64);
        wal_bytes.push(gauges.wal_bytes as f64);
        points.push(gauges.ts_points as f64);
        misses += gauges.static_misses;
        if &report.render() != expected {
            mismatches += 1;
        }
    }
    o.check(
        format!(
            "traced ranking equals the untraced ranking at each of {} cycles",
            renders.len()
        ),
        mismatches == 0,
    );
    let snap = mirror.accumulator().snapshot();
    o.set("leakprof.instances", snap.instances.len() as f64);
    o.set("leakprof.sites", snap.sites.len() as f64);
    o.set("ledger.bytes", mirror.ledger_bytes() as f64);
    o.set("snapshot.bytes", mirror.snapshot_bytes() as f64);
    o.set("scrape.body_bytes", median(&body_bytes));
    o.set("snapshot.wal_bytes", median(&wal_bytes));
    o.set("timeseries.points", median(&points));
    o.set("static_tier.cache_misses", misses as f64);
    drop(mirror);
    let spans = rec.into_spans();
    let layers = Layers::from_spans(&spans);
    o.set_layers(&layers);
    o.set("cycle.unattributed_ms", layers.residual_us("cycle") / 1e3);
    let traced_p50 = layers.p50_us("cycle") / 1e3;
    o.set(
        "trace.overhead_pct",
        overhead_pct(untraced_p50_ms, traced_p50),
    );
    o.line(format!(
        "traced cycle_ms: {} (untraced p50 {untraced_p50_ms:.3} ms)",
        layers.dist_us("cycle").scaled(1e-3).describe("ms")
    ));
    write_chrome(&spans, &cfg.spans).map_err(|e| format!("spans: {e}"))?;
    o.line(format!(
        "spans: {} written to {}",
        spans.len(),
        cfg.spans.display()
    ));
    Ok(())
}

/// The scraper's scatter-gather with a span around each fetch and
/// decode: `min(16, targets)` workers, one attempt per target (the
/// frozen fleet never fails), breakers consulted and updated as the
/// daemon does. Returns the profiles sorted by instance, the cycle
/// stats, and the body bytes fetched.
fn scrape(
    rec: &Recorder,
    op: u64,
    targets: &[ScrapeTarget],
    breakers: &mut BreakerSet,
    cfg: &ScrapeConfig,
) -> (Vec<GoroutineProfile>, CycleStats, u64) {
    let open = rec.begin("scrape.cycle", op, Some("cycle"), 0);
    let started = Instant::now();
    let decisions: Vec<Decision> = targets
        .iter()
        .map(|t| breakers.decide(&t.instance))
        .collect();
    let workers = targets.len().clamp(1, 16);
    let next = AtomicUsize::new(0);
    type Slot = (usize, Result<GoroutineProfile, String>, Duration, usize);
    let results: Mutex<Vec<Slot>> = Mutex::new(Vec::with_capacity(targets.len()));
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, results, decisions) = (&next, &results, &decisions);
            s.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(target) = targets.get(idx) else {
                    break;
                };
                if decisions[idx] == Decision::Skip {
                    continue;
                }
                let thread = w as u32 + 1;
                let f = rec.begin("scrape.fetch", op, Some("scrape.cycle"), thread);
                let begin = Instant::now();
                let body = http_get_with(
                    target.addr,
                    &target.path,
                    cfg.connect_timeout,
                    cfg.read_timeout,
                    None,
                );
                let latency = begin.elapsed();
                rec.end(f);
                let bytes = body.as_ref().map_or(0, Vec::len);
                let outcome = body.map_err(|e| e.to_string()).and_then(|body| {
                    let d = rec.begin("scrape.decode", op, Some("scrape.cycle"), thread);
                    let parsed = std::str::from_utf8(&body)
                        .map_err(|e| e.to_string())
                        .and_then(|s| {
                            serde_json::from_str::<GoroutineProfile>(s).map_err(|e| e.to_string())
                        });
                    rec.end(d);
                    parsed
                });
                results
                    .lock()
                    .expect("results poisoned")
                    .push((idx, outcome, latency, bytes));
            });
        }
    });
    let mut recorded = results.into_inner().expect("results poisoned");
    recorded.sort_by_key(|(idx, ..)| *idx);
    let mut stats = CycleStats::default();
    let mut profiles = Vec::with_capacity(recorded.len());
    let mut bytes = 0u64;
    for (idx, outcome, latency, b) in recorded {
        stats.latency.record(latency);
        breakers.record(&targets[idx].instance, outcome.is_ok());
        bytes += b as u64;
        match outcome {
            Ok(p) => profiles.push(p),
            Err(_) => stats.failed += 1,
        }
    }
    profiles.sort_by(|a, b| a.instance.cmp(&b.instance));
    stats.targets = targets.len();
    stats.succeeded = profiles.len();
    stats.skipped = decisions.iter().filter(|d| **d == Decision::Skip).count();
    stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    rec.end(open);
    (profiles, stats, bytes)
}
