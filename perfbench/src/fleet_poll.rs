//! `fleet_poll`: one `FleetAggregator` polling four shard daemons
//! (`ShardMap::new(4)`) over a demo fleet, `poll_once` back to back in a
//! closed loop with one client. The only workload that exercises the
//! fleet tier and the merge; its wire and fold cost scales with the
//! snapshot state the shards accumulated during set-up.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use collector::http::HttpConnection;
use collector::{
    classify_sites, serve_daemon_endpoints, serve_fleet_endpoints, ApiSnapshot, BreakerConfig,
    BreakerSet, Daemon, DaemonConfig, DemoFleet, FleetAggregator, FleetConfig, HttpServer,
    LedgerConfig, ReportLedger, ShardSpec,
};
use leakprof::series as sid;
use leakprof::FleetAccumulator;
use shardmap::ShardMap;
use timeseries::{StoreConfig, TrendConfig, TsStore};

use crate::pull_fleet::{DAYS, INSTANCES, THRESHOLD, TOP};
use crate::push_ingest::get_median_us;
use crate::server::FleetServer;
use crate::stats::median;
use crate::trace::{write_chrome, Layers, Recorder};
use crate::{overhead_pct, Outcome, RunConfig};

const SHARDS: u32 = 4;
/// Cycles each shard runs before it freezes.
const WARM_CYCLES: usize = 10;
const SETUPS: usize = 3;

/// Four warmed shard daemons with their endpoints up.
struct Shards {
    servers: Vec<HttpServer>,
    addrs: Vec<SocketAddr>,
}

fn start_shards(
    demo: &DemoFleet,
    fleet_addr: SocketAddr,
    dir: &std::path::Path,
) -> Result<Shards, String> {
    let map = ShardMap::new(SHARDS);
    let mut servers = Vec::new();
    for index in 0..SHARDS {
        let config = DaemonConfig {
            state_dir: Some(dir.join(format!("shard{index}"))),
            shard: Some(ShardSpec {
                map: map.clone(),
                index,
            }),
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::new(
            config,
            demo.leakprof(THRESHOLD, TOP),
            demo.targets(fleet_addr),
        )
        .map_err(|e| format!("shard {index}: {e}"))?;
        for _ in 0..WARM_CYCLES {
            daemon.run_cycle();
        }
        let server = serve_daemon_endpoints(Arc::new(Mutex::new(daemon)), "127.0.0.1:0")
            .map_err(|e| format!("shard {index} endpoints: {e}"))?;
        servers.push(server);
    }
    let addrs = servers.iter().map(HttpServer::addr).collect();
    Ok(Shards { servers, addrs })
}

fn aggregator(demo: &DemoFleet, addrs: &[SocketAddr]) -> FleetAggregator {
    FleetAggregator::new(
        FleetConfig {
            map: Some(ShardMap::new(SHARDS)),
            ..FleetConfig::new(addrs.to_vec())
        },
        demo.leakprof(THRESHOLD, TOP),
    )
}

pub fn run(cfg: &RunConfig, o: &mut Outcome) -> Result<(), String> {
    let demo = DemoFleet::build(INSTANCES, DAYS, cfg.seed);
    let profiles = demo.fleet.collect_profiles();
    let server = FleetServer::start(&profiles).map_err(|e| format!("generator: {e}"))?;
    o.line(format!(
        "fleet: {} instances over {SHARDS} shards, {WARM_CYCLES} warm cycles per shard",
        profiles.len()
    ));

    // The reference: a whole-fleet daemon warmed for the same cycles.
    let mut whole = Daemon::new(
        DaemonConfig {
            state_dir: Some(cfg.work.join("whole")),
            ..DaemonConfig::default()
        },
        demo.leakprof(THRESHOLD, TOP),
        demo.targets(server.addr()),
    )
    .map_err(|e| format!("whole-fleet daemon: {e}"))?;
    for _ in 0..WARM_CYCLES {
        whole.run_cycle();
    }
    let reference = whole.last_report().expect("whole fleet ranked").render();
    drop(whole);

    // Set-up: four shard daemons warmed and serving, and the aggregator,
    // repeated on fresh state dirs.
    let mut setup_s = Vec::new();
    let mut shards = None;
    for i in 0..SETUPS {
        let dir = cfg.work.join(format!("setup{i}"));
        let t = Instant::now();
        let s = start_shards(&demo, server.addr(), &dir)?;
        let agg = aggregator(&demo, &s.addrs);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((mut old, _, old_dir)) = shards.replace((s, agg, dir)) {
            for srv in &mut old.servers {
                srv.shutdown();
            }
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    // The shards are frozen from here on: the fleet generator can go.
    server.stop();
    let (mut shards, mut agg, _) = shards.expect("at least one set-up");
    o.set("setup_s", median(&setup_s));
    o.line(format!(
        "setup_s = {:.4} s (median of {SETUPS} four-shard warm-ups)",
        median(&setup_s)
    ));

    let budget = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let mut poll_ms = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        let t = Instant::now();
        let answered = agg.poll_once();
        poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
        o.attempted += SHARDS as u64;
        o.failed += SHARDS as u64 - answered as u64;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let merged = agg.last_report().expect("poll ranked").render();
    o.check(
        format!(
            "merged ranking is byte-identical to a whole-fleet daemon after {WARM_CYCLES} cycles"
        ),
        merged == reference,
    );
    let (p50, tail) = o.dist_lines("poll", &poll_ms, "ms");
    let polls_per_s = poll_ms.len() as f64 / elapsed;
    o.line(format!("polls_per_s = {polls_per_s:.2} 1/s"));
    if !cfg.trace {
        o.set("op_p50_ms", p50);
        o.set("op_tail_ms", tail);
        o.set("throughput_per_s", polls_per_s);
    } else {
        o.set(
            "http.request_us",
            get_median_us(shards.addrs[0], "/logs?limit=0"),
        );
        let agg = Arc::new(Mutex::new(agg));
        let mut front = serve_fleet_endpoints(Arc::clone(&agg), "127.0.0.1:0")
            .map_err(|e| format!("fleet endpoints: {e}"))?;
        o.set(
            "fleet_tier.serve_us",
            get_median_us(front.addr(), "/health"),
        );
        front.shutdown();
        traced(cfg, o, &demo, &shards.addrs, poll_ms.len(), &merged, p50)?;
    }
    for s in &mut shards.servers {
        s.shutdown();
    }
    Ok(())
}

/// The traced pass: `poll_once`'s layer calls — fetch and decode of each
/// shard's `/api/snapshot` over a kept-alive connection, the fold, the
/// ranking, the telemetry append and the trend classification — as many
/// polls as the untraced pass made, each ranking compared with it.
fn traced(
    cfg: &RunConfig,
    o: &mut Outcome,
    demo: &DemoFleet,
    addrs: &[SocketAddr],
    polls: usize,
    expected: &str,
    untraced_ms: f64,
) -> Result<(), String> {
    let rec = Recorder::new();
    let lp = demo.leakprof(THRESHOLD, TOP);
    let fleet = FleetConfig::new(addrs.to_vec());
    let mut breakers = BreakerSet::new(BreakerConfig::default());
    let mut conns: Vec<Option<HttpConnection>> = addrs.iter().map(|_| None).collect();
    let mut ts = TsStore::in_memory(StoreConfig::default());
    let trend = TrendConfig::default();
    let (mut mismatches, mut failed) = (0usize, 0u64);
    let mut bytes = Vec::new();
    for poll in 1..=polls as u64 {
        let root = rec.begin("fleet_tier.poll", poll, None, 0);
        let p = Some("fleet_tier.poll");
        let mut snaps: Vec<ApiSnapshot> = Vec::new();
        let mut poll_bytes = 0usize;
        for (i, addr) in addrs.iter().enumerate() {
            let key = addr.to_string();
            breakers.decide(&key);
            let body = rec.time("fleet_tier.fetch", poll, p, || {
                if conns[i].is_none() {
                    conns[i] =
                        HttpConnection::connect(*addr, fleet.connect_timeout, fleet.read_timeout)
                            .ok();
                }
                let conn = conns[i].as_mut()?;
                conn.get("/api/snapshot").ok()
            });
            let snap = body.and_then(|b| {
                poll_bytes += b.len();
                rec.time("fleet_tier.decode", poll, p, || {
                    std::str::from_utf8(&b)
                        .ok()
                        .and_then(|s| serde_json::from_str::<ApiSnapshot>(s).ok())
                })
            });
            breakers.record(&key, snap.is_some());
            match snap {
                Some(s) => snaps.push(s),
                None => {
                    conns[i] = None;
                    failed += 1;
                }
            }
        }
        bytes.push(poll_bytes as f64);
        snaps.sort_by_key(|s| s.shard.as_ref().map_or(u32::MAX, |id| id.shard));
        let acc = rec.time("merge.fold", poll, p, || {
            let mut acc = FleetAccumulator::new();
            let mut ledger = ReportLedger::new(LedgerConfig::default());
            for snap in &snaps {
                if let Ok(shard) = FleetAccumulator::from_snapshot(&snap.acc) {
                    acc.merge(&shard);
                }
                let _ = ledger.merge_entries(snap.ledger.iter());
            }
            acc
        });
        let report = rec.time("leakprof.report", poll, p, || {
            lp.report_from_accumulator(&acc)
        });
        rec.time("timeseries.append", poll, p, || {
            let mut points: Vec<(String, f64)> = Vec::new();
            for s in &report.suspects {
                let fp = sid::site_fingerprint(&s.stats);
                points.push((sid::site_rms_id(&fp), s.stats.rms));
                points.push((sid::site_total_id(&fp), s.stats.total as f64));
                points.push((
                    sid::site_blocked_id(&fp),
                    acc.raw_site_total(&s.stats.op) as f64,
                ));
            }
            let borrowed: Vec<(&str, f64)> = points.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            ts.append(poll, &borrowed).expect("in-memory ts append");
        });
        rec.time("health.classify", poll, p, || {
            let fps: Vec<String> = report
                .suspects
                .iter()
                .map(|s| sid::site_fingerprint(&s.stats))
                .collect();
            classify_sites(&ts, &trend, &fps)
        });
        rec.end(root);
        if report.render() != expected {
            mismatches += 1;
        }
    }
    o.check(
        format!("traced merged ranking equals the untraced one at each of {polls} polls"),
        mismatches == 0 && failed == 0,
    );
    o.set("fleet_tier.snapshot_bytes", median(&bytes));
    let spans = rec.into_spans();
    let layers = Layers::from_spans(&spans);
    o.set_layers(&layers);
    o.set(
        "fleet_tier.unattributed_ms",
        layers.residual_us("fleet_tier.poll") / 1e3,
    );
    let traced_ms = layers.p50_us("fleet_tier.poll") / 1e3;
    o.set("trace.overhead_pct", overhead_pct(untraced_ms, traced_ms));
    o.line(format!(
        "traced poll_ms: {} (untraced p50 {untraced_ms:.3} ms)",
        layers
            .dist_us("fleet_tier.poll")
            .scaled(1e-3)
            .describe("ms")
    ));
    write_chrome(&spans, &cfg.spans).map_err(|e| format!("spans: {e}"))?;
    o.line(format!(
        "spans: {} written to {}",
        spans.len(),
        cfg.spans.display()
    ));
    Ok(())
}
