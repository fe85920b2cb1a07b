//! Differential end-to-end tests for sharded collection: N shard
//! daemons covering disjoint slices of one fleet must merge — via
//! `leakprofd merge` over state dirs, via the live fleet aggregator,
//! AND via the client-side fold behind `leakprofd status --addr …` —
//! to the byte-identical ranking a single whole-fleet daemon computes,
//! and stay correct across a shard kill + recovery.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use collector::{
    fold_order, fold_snapshot, http_get, merge_state_dirs, serve_daemon_endpoints, ApiSnapshot,
    Daemon, DaemonConfig, DemoFleet, FleetAggregator, FleetConfig, MergeConfig, ReportLedger,
    ScrapeConfig, ShardSpec,
};
use shardmap::ShardMap;

const SHARDS: u32 = 3;
const CYCLES: usize = 3;

fn fast_scrape() -> ScrapeConfig {
    ScrapeConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(200),
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        ..ScrapeConfig::default()
    }
}

fn lp() -> leakprof::LeakProf {
    leakprof::LeakProf::new(leakprof::Config {
        threshold: 20,
        ast_filter: false,
        top_n: 10,
    })
}

fn report_json(report: &leakprof::Report) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// The headline bar: a 12-instance fleet split 3 ways; the merged
/// ranking from state dirs and from the live aggregator are both
/// byte-identical to the whole-fleet daemon's, including after one
/// shard is killed mid-cycle (no final checkpoint — recovery replays
/// its WAL) and restarted.
#[test]
fn three_shard_merge_matches_whole_fleet_byte_for_byte() {
    let root = std::env::temp_dir().join(format!("leakprofd-shard-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let demo = DemoFleet::build(12, 2, 5);
    let server = demo.hub.serve("127.0.0.1:0", 8).expect("hub bind");
    let targets = demo.targets(server.addr());
    let map = ShardMap::new(SHARDS);

    // The reference: one unsharded daemon over the whole fleet.
    let mut whole = Daemon::new(
        DaemonConfig {
            scrape: fast_scrape(),
            ..DaemonConfig::default()
        },
        lp(),
        targets.clone(),
    )
    .expect("whole-fleet daemon");
    for _ in 0..CYCLES {
        whole.run_cycle();
    }
    let whole_json = report_json(whole.last_report().expect("whole ran"));

    // Three shard daemons, each scraping only its slice into its own
    // tagged state dir, each serving /api/snapshot.
    let mut daemons = Vec::new();
    let mut endpoints = Vec::new();
    let mut dirs = Vec::new();
    let mut slice_sizes = Vec::new();
    for i in 0..SHARDS {
        let dir = root.join(format!("shard{i}"));
        let config = DaemonConfig {
            scrape: fast_scrape(),
            state_dir: Some(dir.clone()),
            snapshot_every: 2,
            shard: Some(ShardSpec {
                map: map.clone(),
                index: i,
            }),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::new(config, lp(), targets.clone()).expect("shard daemon");
        slice_sizes.push(daemon.targets().len());
        let daemon = Arc::new(Mutex::new(daemon));
        let endpoint =
            serve_daemon_endpoints(Arc::clone(&daemon), "127.0.0.1:0").expect("endpoint bind");
        for _ in 0..CYCLES {
            daemon.lock().unwrap().run_cycle();
        }
        dirs.push(dir);
        endpoints.push(endpoint);
        daemons.push(daemon);
    }
    assert_eq!(
        slice_sizes.iter().sum::<usize>(),
        targets.len(),
        "slices must partition the fleet"
    );
    assert!(
        slice_sizes.iter().all(|&n| n > 0),
        "every shard owns a non-empty slice: {slice_sizes:?}"
    );

    // Path 1: the live aggregator polling /api/snapshot.
    let mut fleet = FleetAggregator::new(
        FleetConfig {
            map: Some(map.clone()),
            ..FleetConfig::new(endpoints.iter().map(|e| e.addr()).collect())
        },
        lp(),
    );
    assert_eq!(fleet.poll_once(), SHARDS as usize);
    let fleet_json = report_json(fleet.last_report().expect("fleet polled"));
    assert_eq!(
        fleet_json, whole_json,
        "live fleet merge must be byte-identical to the whole-fleet daemon"
    );

    // Path 2: the client-side fold `leakprofd status --addr …` runs
    // over the shards' /api/snapshot documents.
    let mut snaps: Vec<(String, ApiSnapshot)> = endpoints
        .iter()
        .map(|e| {
            let body = http_get(
                e.addr(),
                "/api/snapshot",
                Duration::from_millis(1000),
                Duration::from_millis(2000),
            )
            .expect("GET /api/snapshot");
            let snap = serde_json::from_str(std::str::from_utf8(&body).expect("utf-8"))
                .expect("api snapshot parses");
            (e.addr().to_string(), snap)
        })
        .collect();
    snaps.sort_by_key(|(addr, snap)| fold_order(snap.shard.as_ref(), addr.clone()));
    let mut acc = leakprof::FleetAccumulator::new();
    let mut ledger = ReportLedger::new(Default::default());
    for (_, snap) in &snaps {
        fold_snapshot(&mut acc, &mut ledger, snap).expect("shard snapshot restores");
    }
    let client_json = report_json(&lp().report_from_accumulator(&acc));
    assert_eq!(
        client_json, whole_json,
        "client-side fold must be byte-identical to the whole-fleet daemon"
    );
    assert_eq!(client_json, fleet_json, "and to the live fleet merge");

    let status = fleet.status();
    assert_eq!(status.stale_shards, 0);
    assert_eq!(status.map_version, Some(1));
    assert_eq!(
        status.profiles_ingested,
        whole.accumulator().profiles_ingested()
    );
    for row in &status.shards {
        assert_eq!(row.cycle, CYCLES as u64);
        assert_eq!(row.breaker, "closed");
        assert!(!row.stale);
        assert_eq!(row.shard.as_ref().map(|s| s.of), Some(SHARDS));
    }

    // Kill shard 1 "mid-cycle": drop it without a final checkpoint, so
    // its durable state is snapshot(cycle 2) + WAL(cycle 3) and
    // recovery must replay the WAL to reproduce the pre-kill state.
    // Shards 0 and 2 shut down cleanly.
    endpoints.remove(1).shutdown();
    drop(daemons.remove(1));
    for d in &daemons {
        let d = d.lock().unwrap();
        d.commit_snapshot().expect("checkpoint");
    }

    // Path 3: the offline merge over the three state dirs — the killed
    // shard's dir included, recovered via WAL replay.
    let merged = merge_state_dirs(&dirs, &MergeConfig::default()).expect("offline merge");
    assert_eq!(merged.cycle, CYCLES as u64);
    let merged_json = report_json(&lp().report_from_accumulator(&merged.acc));
    assert_eq!(
        merged_json, whole_json,
        "offline state-dir merge must be byte-identical to the whole-fleet daemon"
    );
    for summary in &merged.shards {
        assert_eq!(
            summary.cycle, CYCLES as u64,
            "WAL replay recovered {summary:?}"
        );
    }
    assert_eq!(
        merged.shards[1].shard.as_ref().map(|s| s.shard),
        Some(1),
        "fold order is by shard index"
    );

    // Recovery: restart the killed shard from its state dir (same
    // seat, WAL replay) at a new address, re-point the aggregator, and
    // the live merged ranking is byte-identical again.
    let restarted = Daemon::new(
        DaemonConfig {
            scrape: fast_scrape(),
            state_dir: Some(dirs[1].clone()),
            snapshot_every: 2,
            shard: Some(ShardSpec {
                map: map.clone(),
                index: 1,
            }),
            ..DaemonConfig::default()
        },
        lp(),
        targets.clone(),
    )
    .expect("restart from tagged state dir");
    assert_eq!(restarted.recovered_cycle(), CYCLES as u64);
    let restarted = Arc::new(Mutex::new(restarted));
    let endpoint = serve_daemon_endpoints(Arc::clone(&restarted), "127.0.0.1:0").expect("rebind");
    fleet.set_peer_addr(1, endpoint.addr());
    assert_eq!(fleet.poll_once(), SHARDS as usize);
    assert_eq!(
        report_json(fleet.last_report().expect("fleet repolled")),
        whole_json,
        "post-recovery live merge must still match the whole-fleet daemon"
    );
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// Failover chaos: one of three shards goes dark mid-run. The
/// aggregator's breaker opens, the slice is marked stale (its last
/// good snapshot keeps contributing, so the merged ranking still
/// matches the full fleet), and a rebalanced shard-map version
/// reassigns exactly the dead seat's instances to the survivors.
#[test]
fn shard_death_marks_slice_stale_and_rebalances_the_map() {
    let root = std::env::temp_dir().join(format!("leakprofd-shard-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let demo = DemoFleet::build(12, 2, 5);
    let server = demo.hub.serve("127.0.0.1:0", 8).expect("hub bind");
    let targets = demo.targets(server.addr());
    let map = ShardMap::new(SHARDS);

    let mut whole = Daemon::new(
        DaemonConfig {
            scrape: fast_scrape(),
            ..DaemonConfig::default()
        },
        lp(),
        targets.clone(),
    )
    .expect("whole-fleet daemon");
    for _ in 0..CYCLES {
        whole.run_cycle();
    }
    let whole_json = report_json(whole.last_report().expect("whole ran"));

    let mut daemons = Vec::new();
    let mut endpoints = Vec::new();
    for i in 0..SHARDS {
        let daemon = Daemon::new(
            DaemonConfig {
                scrape: fast_scrape(),
                shard: Some(ShardSpec {
                    map: map.clone(),
                    index: i,
                }),
                ..DaemonConfig::default()
            },
            lp(),
            targets.clone(),
        )
        .expect("shard daemon");
        let daemon = Arc::new(Mutex::new(daemon));
        let endpoint =
            serve_daemon_endpoints(Arc::clone(&daemon), "127.0.0.1:0").expect("endpoint bind");
        for _ in 0..CYCLES {
            daemon.lock().unwrap().run_cycle();
        }
        endpoints.push(endpoint);
        daemons.push(daemon);
    }

    let mut fleet = FleetAggregator::new(
        FleetConfig {
            map: Some(map.clone()),
            ..FleetConfig::new(endpoints.iter().map(|e| e.addr()).collect())
        },
        lp(),
    );
    assert_eq!(fleet.poll_once(), SHARDS as usize);
    assert_eq!(fleet.status().stale_shards, 0);

    // Kill shard 2's endpoint. Its breaker needs `failure_threshold`
    // consecutive failed polls to open; poll past that.
    endpoints.remove(2).shutdown();
    drop(daemons.remove(2));
    let mut status = fleet.status();
    for _ in 0..6 {
        fleet.poll_once();
        status = fleet.status();
        if status.stale_shards > 0 {
            break;
        }
    }
    assert_eq!(status.stale_shards, 1, "dead shard marked stale");
    let dead_row = &status.shards[2];
    assert!(dead_row.stale);
    assert_eq!(dead_row.breaker, "open");
    assert!(dead_row.consecutive_failures >= 3);
    assert!(!status.shards[0].stale);
    assert!(!status.shards[1].stale);

    // Failover: a rebalanced map version reassigns exactly the dead
    // seat's instances to the survivors; survivors' instances stay put.
    assert_eq!(status.rebalances, 1, "one rebalanced map emitted");
    let v2 = fleet.map().expect("map loaded").clone();
    assert!(v2.version > map.version);
    assert!(!v2.is_alive(2));
    for t in &targets {
        let owner = v2.owner(&t.instance).expect("survivors own everything");
        assert_ne!(owner, 2, "{} still assigned to the dead seat", t.instance);
        let old = map.owner(&t.instance).expect("v1 total");
        if old != 2 {
            assert_eq!(owner, old, "{} moved off a surviving seat", t.instance);
        }
    }

    // The dead shard's last good snapshot keeps contributing: the
    // merged ranking still equals the full-fleet ranking.
    assert_eq!(
        report_json(fleet.last_report().expect("fleet polled")),
        whole_json,
        "stale slice must keep serving its last snapshot"
    );
    let _ = std::fs::remove_dir_all(&root);
}
