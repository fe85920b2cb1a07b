//! Bench: push-mode ingestion at fleet scale.
//!
//! The paper's deployment has ~200K instances reporting in; a pull
//! scraper cannot dial that many targets per cycle, so the push tier
//! must absorb the fan-in. This experiment drives fleets of synthetic
//! pushing instances (2 500 → 10 000) against one daemon whose ingest
//! queue is provisioned at a *fixed* size — an operator constant, not
//! a function of the fleet — so every fleet runs under sustained
//! overload: each cycle the whole fleet attempts a push, the queue
//! admits its watermark's worth, and the rest are shed with `429
//! Retry-After` pointing past the cycle boundary (those instances come
//! back next cycle with a fresher capture, which is exactly what
//! newest-wins coalescing wants). Three properties are gated and
//! written to `BENCH_push.json`:
//!
//! 1. **Sub-linear cycle latency**: admission control bounds per-cycle
//!    fold work at the queue capacity, so a 4× fleet must cost well
//!    under 4× the cycle time — shedding is what keeps the collection
//!    tier's latency from scaling with the stampede.
//! 2. **Bounded detection latency under sustained overload**: a
//!    regression injected into 1% of instances must surface in the
//!    suspect ranking within 3 cycles even while ~80% of every burst
//!    is being shed.
//! 3. **Overload differential**: a run that shed heavily and relied on
//!    pusher retries converges to a ranking byte-identical to a run
//!    that never shed, over the same final profiles.

use std::time::Instant;

use collector::{Daemon, DaemonConfig, IngestConfig, IngestTier};
use gosim::{Frame, Gid, GoStatus, GoroutineProfile, GoroutineRecord, Loc};
use leakprof::LeakProf;
use serde::Serialize;

const FLEET_SIZES: [usize; 3] = [2_500, 5_000, 10_000];
/// Ingest-queue high watermark an operator provisions for the daemon.
/// Fixed across fleet sizes: overload is the fleet outrunning *this*,
/// and the bench's claim is that cycle cost tracks this constant, not
/// the fleet.
const QUEUE_CAPACITY: usize = 2_048;
const CYCLES: usize = 5;
/// Cycle (0-based) at which the regression starts leaking.
const INJECT_AT: usize = 2;
/// Fraction of the fleet that leaks after injection: 1 in 100.
const LEAK_EVERY: usize = 100;
const LEAK_SITE: &str = "pay/checkout.go";
const DETECT_WITHIN: usize = 3;
/// Gate on t(10K)/t(2.5K): strictly sub-linear would be anything under
/// 4.0 for a 4× fleet; admission control should hold the measured
/// ratio far lower (the fold is bounded by `QUEUE_CAPACITY`), so 2.5
/// fails well before the growth drifts back toward linear.
const SUBLINEAR_GATE: f64 = 2.5;
/// Push-attempt order stride: prime, coprime to every fleet size, so
/// `i ↦ (i·STRIDE + cycle) mod fleet` is a full permutation — which
/// instances land inside the admitted prefix varies per cycle instead
/// of privileging low ids.
const STRIDE: usize = 7_919;

#[derive(Serialize)]
struct Row {
    instances: usize,
    queue_capacity: usize,
    cycle_ms: f64,
    push_ms: f64,
    admitted_per_cycle: f64,
    shed_total: u64,
    detect_cycles: Option<usize>,
}

#[derive(Serialize)]
struct Differential {
    instances: usize,
    shed_total: u64,
    identical: bool,
}

#[derive(Serialize)]
struct BenchResult {
    cycles: usize,
    inject_at: usize,
    rows: Vec<Row>,
    /// Cycle time at the largest fleet over the smallest — the gated
    /// sub-linearity ratio for a 4× fleet (must stay ≤ 2.5).
    scaling_4x: f64,
    differential: Differential,
}

/// Median of the samples — one preempted cycle (this box shares a
/// single core with the absorbers and the reaper) would drag a mean
/// far more than it drags the middle of four observations.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn lp() -> LeakProf {
    LeakProf::new(leakprof::Config {
        threshold: 20,
        ast_filter: false,
        top_n: 10,
    })
}

/// One instance's profile for one cycle: a handful of benign blocked
/// goroutines spread over four sites (each far below the threshold even
/// accumulated over every cycle), plus — for leaking instances after
/// the injection cycle — 25 goroutines parked at the leak site, enough
/// to cross the threshold in a single profile.
fn synth_profile(instance: usize, cycle: usize, leaking: bool) -> GoroutineProfile {
    let mut gs = Vec::new();
    let mut gid = 0u64;
    let mut park = |gs: &mut Vec<GoroutineRecord>, disc: &str, file: &str, line: u32, n: usize| {
        for _ in 0..n {
            gs.push(GoroutineRecord {
                gid: Gid(gid),
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
            gid += 1;
        }
    };
    park(&mut gs, "runtime.chansend1", "pay/a.go", 8, 1);
    park(&mut gs, "runtime.chanrecv1", "geo/b.go", 21, 1);
    park(&mut gs, "runtime.selectgo", "msg/c.go", 33, 1);
    park(&mut gs, "runtime.netpoll", "io/d.go", 2, 8);
    if leaking {
        park(&mut gs, "runtime.chansend1", LEAK_SITE, 42, 25);
    }
    GoroutineProfile {
        instance: format!("inst-{instance:05}"),
        captured_at: 1_000 + cycle as u64,
        goroutines: gs,
    }
}

/// One overload burst: every instance attempts exactly one push, in a
/// cycle-dependent permuted order, with the absorbers paused (arrival
/// outrunning the fold — the sustained-overload shape). The queue
/// admits its watermark's worth and sheds the rest; a shed instance
/// does *not* retry within the cycle, because its `Retry-After` hint
/// points past the cycle boundary and next cycle it will push a
/// fresher capture anyway. Returns how many pushes were admitted.
fn push_burst(tier: &IngestTier, profiles: &[GoroutineProfile], cycle: usize) -> u64 {
    let n = profiles.len();
    tier.pause_absorbers(true);
    let mut admitted = 0u64;
    for i in 0..n {
        let idx = (i * STRIDE + cycle) % n;
        let body = serde_json::to_string(&profiles[idx]).expect("profile serializes");
        match tier.handle_push(body.as_bytes()).status {
            200 => admitted += 1,
            429 => {}
            other => panic!("push rejected with {other}"),
        }
    }
    tier.pause_absorbers(false);
    admitted
}

/// Pushes every profile through the real admission path, retrying shed
/// (429) pushes until the absorbers make room — the client side's
/// backoff loop with the sleeps compressed out. With `stall_first`,
/// the absorbers are paused for the opening burst (a stalled consumer),
/// so the queue hits its watermark and the burst sheds by construction.
/// The differential run uses this to land the *same* final profile set
/// through an overloaded queue and an unloaded one.
fn push_until_admitted(tier: &IngestTier, profiles: &[GoroutineProfile], stall_first: bool) {
    let mut pending: Vec<Vec<u8>> = profiles
        .iter()
        .map(|p| {
            serde_json::to_string(p)
                .expect("profile serializes")
                .into_bytes()
        })
        .collect();
    tier.pause_absorbers(stall_first);
    let mut rounds = 0u64;
    while !pending.is_empty() {
        rounds += 1;
        assert!(rounds < 100_000, "push retries are not making progress");
        let mut shed = Vec::new();
        for body in pending {
            let resp = tier.handle_push(&body);
            match resp.status {
                200 => {}
                429 => shed.push(body),
                other => panic!("push rejected with {other}"),
            }
        }
        tier.pause_absorbers(false);
        pending = shed;
        if !pending.is_empty() {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

/// Runs `CYCLES` burst+analyze cycles against a fleet of `instances`
/// pushers, injecting the leak at `INJECT_AT`. Returns the bench row.
fn drive_fleet(instances: usize) -> Row {
    let mut daemon = Daemon::new(
        DaemonConfig {
            ingest: Some(IngestConfig {
                queue_capacity: QUEUE_CAPACITY,
                ..IngestConfig::default()
            }),
            ..DaemonConfig::default()
        },
        lp(),
        vec![],
    )
    .expect("daemon");
    let tier = std::sync::Arc::clone(daemon.ingest_tier().expect("tier"));

    let mut cycle_samples: Vec<f64> = Vec::new();
    let mut push_samples = Vec::new();
    let mut admitted_total = 0u64;
    let mut detect_cycles = None;
    for cycle in 0..CYCLES {
        let profiles: Vec<GoroutineProfile> = (0..instances)
            .map(|i| synth_profile(i, cycle, cycle >= INJECT_AT && i % LEAK_EVERY == 0))
            .collect();
        let t = Instant::now();
        admitted_total += push_burst(&tier, &profiles, cycle);
        assert!(
            tier.quiesce(std::time::Duration::from_secs(30)),
            "absorbers drain"
        );
        push_samples.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        daemon.run_cycle();
        let cycle_ms = t.elapsed().as_secs_f64() * 1e3;
        if cycle > 0 {
            // Cycle 0 pays one-time allocation warmup; skip it.
            cycle_samples.push(cycle_ms);
        }
        if detect_cycles.is_none() && cycle >= INJECT_AT {
            let seen = daemon.last_report().is_some_and(|r| {
                r.suspects
                    .iter()
                    .any(|s| s.stats.op.to_string().contains(LEAK_SITE))
            });
            if seen {
                detect_cycles = Some(cycle - INJECT_AT + 1);
            }
        }
    }
    let summary = tier.summary();
    println!(
        "fleet {instances}: cycle samples {:?} ms",
        cycle_samples
            .iter()
            .map(|ms| (ms * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    Row {
        instances,
        queue_capacity: QUEUE_CAPACITY,
        cycle_ms: median(&mut cycle_samples),
        push_ms: push_samples.iter().sum::<f64>() / push_samples.len() as f64,
        admitted_per_cycle: admitted_total as f64 / CYCLES as f64,
        shed_total: summary.shed_total,
        detect_cycles,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut table =
        String::from("instances | queue | cycle_ms | push_ms | admitted/cycle | shed | detect\n");
    for &instances in &FLEET_SIZES {
        let row = drive_fleet(instances);
        table.push_str(&format!(
            "{:>9} | {:>5} | {:>8.2} | {:>7.1} | {:>14.0} | {:>6} | {:?}\n",
            row.instances,
            row.queue_capacity,
            row.cycle_ms,
            row.push_ms,
            row.admitted_per_cycle,
            row.shed_total,
            row.detect_cycles,
        ));
        rows.push(row);
    }
    println!("{table}");

    let t_small = rows[0].cycle_ms;
    let t_large = rows[rows.len() - 1].cycle_ms;
    let scaling = t_large / t_small.max(1e-9);
    println!(
        "cycle latency: t({}) / t({}) = {scaling:.2}x for a 4x fleet",
        rows[rows.len() - 1].instances,
        rows[0].instances
    );

    // Differential: heavy shedding plus retries must converge to the
    // never-overloaded ranking over the same final profiles.
    let n = 2_000;
    let finals: Vec<GoroutineProfile> = (0..n)
        .map(|i| synth_profile(i, CYCLES, i % LEAK_EVERY == 0))
        .collect();
    let one_cycle = |capacity: usize| {
        let mut daemon = Daemon::new(
            DaemonConfig {
                ingest: Some(IngestConfig {
                    queue_capacity: capacity,
                    ..IngestConfig::default()
                }),
                ..DaemonConfig::default()
            },
            lp(),
            vec![],
        )
        .expect("daemon");
        let tier = std::sync::Arc::clone(daemon.ingest_tier().expect("tier"));
        push_until_admitted(&tier, &finals, capacity < finals.len());
        assert!(tier.quiesce(std::time::Duration::from_secs(30)));
        daemon.run_cycle();
        let shed = tier.summary().shed_total;
        (daemon.last_report().expect("report").render(), shed)
    };
    let (unloaded, no_shed) = one_cycle(1 << 16);
    let (overloaded, shed) = one_cycle(32);
    assert_eq!(no_shed, 0, "the wide-queue run must not shed");
    let differential = Differential {
        instances: n,
        shed_total: shed,
        identical: overloaded == unloaded,
    };
    println!(
        "differential: {n} instances through a 32-slot queue shed {shed} pushes, \
         ranking identical = {}",
        differential.identical
    );

    // Gates.
    assert!(
        scaling <= SUBLINEAR_GATE,
        "cycle latency grew super-linearly in fleet size: {scaling:.2}x for 4x"
    );
    for row in &rows {
        assert!(
            row.shed_total > 0,
            "fleet {} never shed — the bench is not exercising overload",
            row.instances
        );
        let detected = row.detect_cycles.unwrap_or(usize::MAX);
        assert!(
            detected <= DETECT_WITHIN,
            "fleet {}: regression took {detected} cycles to surface (gate {DETECT_WITHIN})",
            row.instances
        );
    }
    assert!(shed > 0, "the differential run must shed");
    assert!(
        differential.identical,
        "overloaded ranking diverged from the unloaded baseline"
    );

    let result = BenchResult {
        cycles: CYCLES,
        inject_at: INJECT_AT,
        rows,
        scaling_4x: scaling,
        differential,
    };
    bench::save(
        "BENCH_push.json",
        &serde_json::to_string_pretty(&result).expect("result serializes"),
    );
}
