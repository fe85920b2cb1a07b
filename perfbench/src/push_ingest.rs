//! `push_ingest`: a push-only daemon (`IngestConfig::default()`, a state
//! dir, no scrape targets) taking `POST /api/push` over loopback from an
//! open-loop generator, with cycles every 200 ms on the daemon's driver
//! loop. Scraping is skipped entirely: the HTTP server, admission and
//! absorbers carry the load, and each cycle's fixed costs dominate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use collector::http::HttpConnection;
use collector::{
    serve_daemon_endpoints, CycleStats, Daemon, DaemonConfig, IngestConfig, IngestTier, PUSH_PATH,
};
use gosim::rng::SplitMix64;
use gosim::{Frame, Gid, GoStatus, GoroutineProfile, GoroutineRecord, Loc};
use leakprof::{LeakProf, Report};

use crate::mirror::{dir_bytes, Mirror};
use crate::stats::{median, Dist};
use crate::trace::{write_chrome, Layers, Recorder};
use crate::{overhead_pct, Outcome, RunConfig};

const INSTANCES: usize = 5_000;
/// One instance in a hundred leaks.
const LEAKERS: usize = INSTANCES / 100;
const LEAK_SITE: &str = "pay/checkout.go";
const LEAK_LINE: u32 = 42;
const THRESHOLD: u64 = 20;
const TOP: usize = 10;
const CYCLE_INTERVAL: Duration = Duration::from_millis(200);
const THREADS: usize = 2;
/// The fixed sub-capacity rate at which push-ack latency is reported.
/// Low enough that a short stall delays fewer than the ten pushes
/// beyond the tail percentile.
const BASE_RATE: f64 = 250.0;
/// Share of an untraced run spent at `BASE_RATE`; the ladder gets the
/// rest.
const BASE_SHARE: f64 = 0.3;
/// Offered rates of the capacity ladder, pushes per second: finer near
/// the knee (about 950/s on a 2-core x86-64 box) so a step's pass or
/// fail moves the result little.
const LADDER: [f64; 9] = [
    600.0, 700.0, 750.0, 800.0, 850.0, 900.0, 950.0, 1000.0, 1100.0,
];
/// A ladder step passes when its tail ack latency and the generator's
/// median lateness over the step's last tenth both stay within this
/// limit.
const ACK_LIMIT_MS: f64 = 20.0;
/// Pause between ladder steps, so a saturated step's backlog does not
/// spill into the next.
const STEP_GAP: Duration = Duration::from_millis(150);
const SETUPS: usize = 5;

/// One instance's profile (the `fleet_scale` shape, ~3 KB of JSON):
/// eleven benign blocked goroutines over four sites, far below the
/// threshold, plus 25 at the leak site on leaking instances.
fn profile(instance: usize, leaking: bool) -> GoroutineProfile {
    let mut gs = Vec::new();
    let mut park = |disc: &str, file: &str, line: u32, n: usize| {
        for _ in 0..n {
            gs.push(GoroutineRecord {
                gid: Gid(gs.len() as u64),
                name: "svc.handler$1".into(),
                status: GoStatus::ChanSend { nil_chan: false },
                stack: vec![
                    Frame::runtime("runtime.gopark"),
                    Frame::runtime(disc),
                    Frame::new("svc.handler$1", Loc::new(file, line)),
                    Frame::new("svc.handler", Loc::new(file, 1)),
                ],
                created_by: Frame::new("svc.Serve", Loc::new(file, 1)),
                wait_ticks: 100,
                retained_bytes: 4096,
            });
        }
    };
    park("runtime.chansend1", "pay/a.go", 8, 1);
    park("runtime.chanrecv1", "geo/b.go", 21, 1);
    park("runtime.selectgo", "msg/c.go", 33, 1);
    park("runtime.netpoll", "io/d.go", 2, 8);
    if leaking {
        park("runtime.chansend1", LEAK_SITE, LEAK_LINE, 25);
    }
    GoroutineProfile {
        instance: format!("inst-{instance:05}"),
        captured_at: 1_000,
        goroutines: gs,
    }
}

/// Pre-rendered push bodies in push order: a seeded permutation of the
/// fleet, with a seeded choice of which instances leak.
fn bodies(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut order: Vec<usize> = (0..INSTANCES).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let leakers: std::collections::BTreeSet<usize> = order[..LEAKERS].iter().copied().collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
        .into_iter()
        .map(|i| {
            serde_json::to_string(&profile(i, leakers.contains(&i)))
                .expect("profile serializes")
                .into_bytes()
        })
        .collect()
}

fn lp() -> LeakProf {
    LeakProf::new(leakprof::Config {
        threshold: THRESHOLD,
        ast_filter: false,
        top_n: TOP,
    })
}

/// The ranked sites of `report`, in rank order.
fn ranking(report: &Report) -> Vec<String> {
    report
        .suspects
        .iter()
        .map(|s| s.stats.op.to_string())
        .collect()
}

/// One push as the generator saw it, times relative to its due time.
struct Ack {
    /// Position in the schedule: due `k / rate` seconds after the start.
    k: usize,
    late_ms: f64,
    ack_ms: f64,
    ok: bool,
}

/// Where a generator thread sends a push: over HTTP to the daemon, or
/// straight into an ingest tier (the traced pass).
#[derive(Clone, Copy)]
enum Sink<'a> {
    Http(SocketAddr),
    Tier(&'a IngestTier, &'a Recorder),
}

/// Sends pushes `first..first + count` of `bodies` (cycling) on an open
/// loop at `rate`/s from `THREADS` threads, push `k` due at
/// `k / rate` seconds after the start. Returns every push's outcome.
fn offer(sink: Sink<'_>, bodies: &[Vec<u8>], first: usize, count: usize, rate: f64) -> Vec<Ack> {
    let start = Instant::now();
    let acks = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let acks = &acks;
            s.spawn(move || {
                let mut local = Vec::with_capacity(count / THREADS + 1);
                let mut conn: Option<HttpConnection> = None;
                for k in (t..count).step_by(THREADS) {
                    let due = start + Duration::from_secs_f64(k as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let body = &bodies[(first + k) % bodies.len()];
                    let ok = match sink {
                        Sink::Http(addr) => post(&mut conn, addr, body),
                        Sink::Tier(tier, rec) => {
                            let open = rec.begin("ingest.push", k as u64, None, t as u32 + 1);
                            let status = tier.handle_push(body).status;
                            rec.end(open);
                            status == 200
                        }
                    };
                    let done = Instant::now();
                    local.push(Ack {
                        k,
                        late_ms: sent.duration_since(due).as_secs_f64() * 1e3,
                        ack_ms: done.duration_since(due).as_secs_f64() * 1e3,
                        ok,
                    });
                }
                acks.lock().expect("acks poisoned").extend(local);
            });
        }
    });
    let mut acks = acks.into_inner().expect("acks poisoned");
    acks.sort_by_key(|a| a.k);
    acks
}

/// One push over the thread's keep-alive connection (re-dialled after a
/// transport error). Only a `200` counts as success.
fn post(conn: &mut Option<HttpConnection>, addr: SocketAddr, body: &[u8]) -> bool {
    if conn.is_none() {
        *conn = HttpConnection::connect(addr, Duration::from_secs(1), Duration::from_secs(5)).ok();
    }
    let Some(c) = conn.as_mut() else {
        return false;
    };
    match c.post(PUSH_PATH, "application/json", body) {
        Ok(meta) => meta.status == 200,
        Err(_) => {
            *conn = None;
            false
        }
    }
}

/// A daemon with its endpoints served and its driver loop running.
struct Running {
    daemon: Arc<Mutex<Daemon>>,
    server: collector::HttpServer,
    stop: Arc<AtomicBool>,
    driver: std::thread::JoinHandle<Vec<f64>>,
}

impl Running {
    fn start(state: &std::path::Path) -> Result<Running, String> {
        let config = DaemonConfig {
            state_dir: Some(state.to_path_buf()),
            ingest: Some(IngestConfig::default()),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::new(config, lp(), Vec::new()).map_err(|e| format!("daemon: {e}"))?;
        let daemon = Arc::new(Mutex::new(daemon));
        let server = serve_daemon_endpoints(Arc::clone(&daemon), "127.0.0.1:0")
            .map_err(|e| format!("endpoints: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let driver = {
            let (daemon, stop) = (Arc::clone(&daemon), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut cycle_ms = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let t = Instant::now();
                    daemon.lock().expect("daemon poisoned").run_cycle();
                    cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    std::thread::sleep(CYCLE_INTERVAL);
                }
                cycle_ms
            })
        };
        Ok(Running {
            daemon,
            server,
            stop,
            driver,
        })
    }

    /// Stops the driver loop and the endpoints; returns the cycle times
    /// and the daemon.
    fn stop(mut self) -> (Vec<f64>, Daemon) {
        self.stop.store(true, Ordering::SeqCst);
        let cycles = self.driver.join().expect("driver loop panicked");
        self.server.shutdown();
        drop(self.server);
        let daemon = Arc::try_unwrap(self.daemon)
            .ok()
            .expect("endpoints released the daemon")
            .into_inner()
            .expect("daemon poisoned");
        (cycles, daemon)
    }
}

/// Runs one cycle once every admitted push has been absorbed, so the
/// final ranking covers every push.
fn settle(daemon: &mut Daemon) {
    if let Some(tier) = daemon.ingest_tier() {
        tier.quiesce(Duration::from_secs(5));
    }
    daemon.run_cycle();
}

pub fn run(cfg: &RunConfig, o: &mut Outcome) -> Result<(), String> {
    let bodies = bodies(cfg.seed);
    let mean_bytes = bodies.iter().map(Vec::len).sum::<usize>() / bodies.len();
    o.line(format!(
        "fleet: {INSTANCES} pushing instances, {LEAKERS} leaking at {LEAK_SITE}:{LEAK_LINE}, {mean_bytes} bytes per push"
    ));

    // Set-up: daemon construction, endpoint bind and driver start on a
    // fresh state dir, repeated.
    let mut setup_s = Vec::new();
    let mut running = None;
    // One more set-up than measured: the first warms the process.
    for i in 0..=SETUPS {
        let state = cfg.work.join(format!("state{i}"));
        let t = Instant::now();
        let r = Running::start(&state)?;
        if i > 0 {
            setup_s.push(t.elapsed().as_secs_f64());
        }
        if let Some((old, old_state)) = running.replace((r, state)) {
            drop(old.stop());
            let _ = std::fs::remove_dir_all(old_state);
        }
    }
    let (running, state) = running.expect("at least one set-up");
    o.set("setup_s", median(&setup_s));
    o.line(format!(
        "setup_s = {:.4} s (median of {SETUPS} daemon starts)",
        median(&setup_s)
    ));
    let addr = running.server.addr();

    // Phase 1: the fixed sub-capacity rate. Phase 2 (untraced runs
    // only): the capacity ladder.
    let measure = cfg.measure.as_secs_f64();
    let base_secs = measure * if cfg.trace { 0.5 } else { BASE_SHARE };
    let base_count = (BASE_RATE * base_secs) as usize;
    let base = offer(Sink::Http(addr), &bodies, 0, base_count, BASE_RATE);
    let mut sent = base.len();
    let ack_ms: Vec<f64> = base.iter().map(|a| a.ack_ms).collect();
    let late = Dist::new(base.iter().map(|a| a.late_ms).collect());
    o.attempted += base.len() as u64;
    o.failed += base.iter().filter(|a| !a.ok).count() as u64;
    o.line(format!("push acks at {BASE_RATE}/s:"));
    let (ack_p50, ack_tail) = o.dist_lines("push_ack", &ack_ms, "ms");
    o.line(format!(
        "generator lateness at {BASE_RATE}/s: {}",
        late.describe("ms")
    ));
    o.set("generator.late_ms", late.tail().1);

    let mut max_rate = 0.0;
    if !cfg.trace {
        let step_secs = (measure - base_secs) / LADDER.len() as f64;
        for rate in LADDER {
            std::thread::sleep(STEP_GAP);
            let count = (rate * step_secs) as usize;
            let step = offer(Sink::Http(addr), &bodies, sent, count, rate);
            sent += step.len();
            let failed = step.iter().filter(|a| !a.ok).count();
            o.attempted += step.len() as u64;
            o.failed += failed as u64;
            let ack = Dist::new(step.iter().map(|a| a.ack_ms).collect());
            let last = &step[step.len() - step.len() / 10..];
            let late_end = median(&last.iter().map(|a| a.late_ms).collect::<Vec<_>>());
            // From the first push's due time to the last ack.
            let span_s = step
                .iter()
                .map(|a| a.k as f64 / rate + a.ack_ms / 1e3)
                .fold(0.0, f64::max);
            let achieved = step.len() as f64 / span_s.max(1e-9);
            let ok = failed == 0 && ack.tail().1 <= ACK_LIMIT_MS && late_end <= ACK_LIMIT_MS;
            o.line(format!(
                "ladder {rate}/s: achieved {achieved:.1}/s, ack {}, late at end {late_end:.3} ms, {}",
                ack.describe("ms"),
                if ok { "meets limit" } else { "misses limit" }
            ));
            if ok {
                max_rate = achieved;
            }
        }
        o.line(format!(
            "push_max_rate_per_s = {max_rate:.1} 1/s (tail ack <= {ACK_LIMIT_MS} ms, no growing backlog)"
        ));
        // The peak while serving the load. The drain of whatever backlog
        // the last, saturated step left queued comes after and swings the
        // process peak by 10-30 MB from run to run.
        let rss = crate::rss_peak_mb();
        o.set("rss_peak_mb", rss);
        o.line(format!(
            "rss_peak_mb = {rss:.1} MB (VmHWM at the end of the ladder)"
        ));
    }

    // The HTTP layer alone: a tiny route the daemon answers without
    // taking its mutex, timed while the driver loop keeps cycling.
    let http_us = cfg.trace.then(|| get_median_us(addr, "/logs?limit=0"));
    let (cycle_ms, mut daemon) = running.stop();
    settle(&mut daemon);
    let summary = daemon
        .ingest_tier()
        .expect("push daemon has an ingest tier")
        .summary();
    let ranked = ranking(daemon.last_report().expect("cycle ranked"));
    drop(daemon);
    let leak = format!("chan send at {LEAK_SITE}:{LEAK_LINE}");
    o.check(
        format!("the injected site {leak} is the only site ranked"),
        ranked == vec![leak.clone()],
    );
    let rejected = summary.bad_request_total;
    o.check(
        format!(
            "push_total {} = admitted {} + shed {} + rejected {rejected}",
            summary.push_total, summary.admitted_total, summary.shed_total
        ),
        summary.push_total == summary.admitted_total + summary.shed_total + rejected,
    );
    o.check(
        format!("the daemon counted all {sent} pushes sent"),
        summary.push_total + summary.http_rejected_total == sent as u64,
    );
    let state_bytes = dir_bytes(&state);
    o.set("state_bytes", state_bytes as f64);
    let (cycle_p50, _) = o.dist_lines("cycle", &cycle_ms, "ms");
    o.line(format!(
        "state_bytes = {state_bytes} bytes after {} cycles",
        cycle_ms.len()
    ));
    match http_us {
        None => {
            o.set("op_p50_ms", ack_p50);
            o.set("op_tail_ms", ack_tail);
            o.set("throughput_per_s", max_rate);
            o.check("some ladder step met the ack limit", max_rate > 0.0);
        }
        Some(http_us) => {
            o.set("http.request_us", http_us);
            traced(cfg, o, &bodies, base_count, &ranked, cycle_p50)?;
        }
    }
    Ok(())
}

/// Median time of `GET path` over one keep-alive connection, in µs.
pub fn get_median_us(addr: SocketAddr, path: &str) -> f64 {
    const REQUESTS: usize = 200;
    let Ok(mut conn) =
        HttpConnection::connect(addr, Duration::from_secs(1), Duration::from_secs(5))
    else {
        return 0.0;
    };
    let mut us = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let t = Instant::now();
        if conn.get(path).is_err() {
            break;
        }
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// The traced pass: the same base-rate schedule pushed straight into a
/// benchmark-owned ingest tier (a span per `handle_push`), with the
/// mirrored cycle every 200 ms on this thread.
fn traced(
    cfg: &RunConfig,
    o: &mut Outcome,
    bodies: &[Vec<u8>],
    count: usize,
    expected: &[String],
    untraced_cycle_ms: f64,
) -> Result<(), String> {
    let state = cfg.work.join("traced");
    let rec = Recorder::new();
    let tier = IngestTier::start(IngestConfig::default());
    let mut mirror = Mirror::open(&state, lp(), None).map_err(|e| format!("mirror: {e}"))?;
    let done = AtomicBool::new(false);
    let mut gauges = Vec::new();
    let no_scrape = |_: &Recorder, _: u64| (Vec::new(), CycleStats::default());
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let acks = offer(Sink::Tier(&tier, &rec), bodies, 0, count, BASE_RATE);
            done.store(true, Ordering::SeqCst);
            acks
        });
        while !done.load(Ordering::SeqCst) {
            gauges.push(mirror.cycle(&rec, Some(&tier), no_scrape).1);
            std::thread::sleep(CYCLE_INTERVAL);
        }
        generator.join().expect("generator panicked");
    });
    tier.quiesce(Duration::from_secs(5));
    let (report, last) = mirror.cycle(&rec, Some(&tier), no_scrape);
    gauges.push(last);
    o.check(
        "traced ranking equals the untraced ranking",
        ranking(&report) == expected,
    );
    let summary = tier.summary();
    o.set("ingest.admitted", summary.admitted_total as f64);
    o.set("ingest.shed", summary.shed_total as f64);
    o.set("ingest.coalesced", summary.coalesced_total as f64);
    let snap = mirror.accumulator().snapshot();
    o.set("leakprof.instances", snap.instances.len() as f64);
    o.set("leakprof.sites", snap.sites.len() as f64);
    o.set("ledger.bytes", mirror.ledger_bytes() as f64);
    o.set("snapshot.bytes", mirror.snapshot_bytes() as f64);
    let wal: Vec<f64> = gauges.iter().map(|g| g.wal_bytes as f64).collect();
    let points: Vec<f64> = gauges.iter().map(|g| g.ts_points as f64).collect();
    o.set("snapshot.wal_bytes", median(&wal));
    o.set("timeseries.points", median(&points));
    drop(mirror);
    drop(tier);
    let spans = rec.into_spans();
    let layers = Layers::from_spans(&spans);
    o.set_layers(&layers);
    o.set("cycle.unattributed_ms", layers.residual_us("cycle") / 1e3);
    let traced_ms = layers.p50_us("cycle") / 1e3;
    o.set(
        "trace.overhead_pct",
        overhead_pct(untraced_cycle_ms, traced_ms),
    );
    o.line(format!(
        "traced cycle_ms: {} (untraced p50 {untraced_cycle_ms:.3} ms)",
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
