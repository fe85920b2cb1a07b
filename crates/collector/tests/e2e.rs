//! End-to-end tests for the `leakprofd` loop: a real fleet simulation
//! served over loopback TCP, scraped concurrently with injected faults,
//! and analyzed incrementally — cross-checked byte-for-byte against the
//! offline analyzer.

use std::time::Duration;

use collector::{
    Daemon, DaemonConfig, DemoFleet, Fault, ProfileHub, ScrapeConfig, ScrapeErrorKind,
    ScrapeTarget, Scraper,
};
use gosim::GoroutineProfile;

/// A fast scrape config for fault tests: short deadlines, one retry.
fn fast_config() -> ScrapeConfig {
    ScrapeConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(200),
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        ..ScrapeConfig::default()
    }
}

fn hub_with(instances: &[&str]) -> ProfileHub {
    let hub = ProfileHub::new();
    for id in instances {
        hub.publish(&GoroutineProfile {
            instance: (*id).into(),
            captured_at: 1,
            goroutines: vec![],
        });
    }
    hub
}

fn targets_for(hub: &ProfileHub, addr: std::net::SocketAddr) -> Vec<ScrapeTarget> {
    hub.instances()
        .into_iter()
        .map(|id| ScrapeTarget {
            path: ProfileHub::profile_path(&id),
            instance: id,
            addr,
        })
        .collect()
}

/// The ISSUE's end-to-end demo: a fleet of instances over TCP, a
/// concurrent scrape with an injected fault, and the streaming analysis
/// emitting the same top-K as the offline analyzer over the profiles
/// that were actually delivered.
#[test]
fn loopback_fleet_with_fault_streams_same_topk_as_offline() {
    let demo = DemoFleet::build(12, 2, 5);
    let server = demo.hub.serve("127.0.0.1:0", 8).expect("loopback bind");
    let targets = demo.targets(server.addr());

    // Inject a fault on one instance: its body is mangled, so the
    // scraper must classify it as a parse failure and move on.
    let victim = targets[2].instance.clone();
    demo.hub.inject_fault(&victim, Fault::CorruptJson);

    let lp = demo.leakprof(40, 10);
    let mut daemon = Daemon::new(
        DaemonConfig {
            scrape: fast_config(),
            ..DaemonConfig::default()
        },
        demo.leakprof(40, 10),
        targets,
    )
    .expect("daemon without history");

    let cycle = daemon.run_cycle();
    assert_eq!(cycle.stats.failed, 1, "exactly the faulted instance fails");
    assert_eq!(cycle.errors[0].instance, victim);
    assert_eq!(cycle.errors[0].kind, ScrapeErrorKind::Parse);
    assert_eq!(cycle.stats.succeeded, cycle.stats.targets - 1);

    // Streaming vs offline over the identical delivered profiles:
    // byte-identical serialized reports.
    let streamed = daemon.last_report().expect("cycle ran").clone();
    let offline = lp.analyze(&cycle.profiles);
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&offline).unwrap(),
        "streaming accumulator diverged from offline analysis"
    );
    assert!(
        !streamed.suspects.is_empty(),
        "demo fleet leaks were found:\n{}",
        streamed.render()
    );
}

/// Same differential check with the criterion-2 filter ON: the daemon's
/// filter runs off the static tier's verdict cache (no sources ever
/// indexed in its LeakProf), the offline analyzer off the in-memory AST
/// index — and the serialized reports must still match byte-for-byte.
#[test]
fn static_tier_filter_matches_offline_ast_filter_byte_for_byte() {
    let demo = DemoFleet::build(12, 2, 5);
    let server = demo.hub.serve("127.0.0.1:0", 8).expect("loopback bind");
    let targets = demo.targets(server.addr());
    let victim = targets[2].instance.clone();
    demo.hub.inject_fault(&victim, Fault::CorruptJson);

    let root = std::env::temp_dir().join(format!("leakprofd-e2e-static-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src_dir = root.join("src");
    let state_dir = root.join("state");
    std::fs::create_dir_all(&state_dir).expect("state dir");
    demo.write_sources(&src_dir).expect("write sources");

    let mut daemon = Daemon::new(
        DaemonConfig {
            scrape: fast_config(),
            state_dir: Some(state_dir.clone()),
            static_tier: Some(collector::StaticTierConfig::in_state_dir(
                src_dir, &state_dir,
            )),
            ..DaemonConfig::default()
        },
        // Filter nominally off and no sources indexed: coverage must
        // come entirely from the verdict cache.
        leakprof::LeakProf::new(leakprof::Config {
            threshold: 40,
            ast_filter: false,
            top_n: 10,
        }),
        targets,
    )
    .expect("daemon with static tier");

    let cycle = daemon.run_cycle();
    assert_eq!(cycle.stats.failed, 1);
    let streamed = daemon.last_report().expect("cycle ran").clone();
    let offline = demo.leakprof(40, 10).analyze(&cycle.profiles);
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&offline).unwrap(),
        "verdict-cache filter diverged from the AST filter"
    );
    assert!(
        !streamed.suspects.is_empty(),
        "demo fleet leaks survive the filter:\n{}",
        streamed.render()
    );
    let stats = daemon.static_tier().expect("tier on").stats();
    assert!(stats.covered_files > 0 && stats.parse_errors == 0);
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn timeout_fault_is_reported_and_ranking_completes() {
    let hub = hub_with(&["a", "b", "slow"]);
    hub.inject_fault("slow", Fault::Delay(Duration::from_millis(400)));
    let server = hub.serve("127.0.0.1:0", 4).expect("bind");
    let report = Scraper::new(fast_config()).scrape_cycle(&targets_for(&hub, server.addr()));
    assert_eq!(report.stats.succeeded, 2);
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.errors[0].instance, "slow");
    assert_eq!(report.errors[0].kind, ScrapeErrorKind::Timeout);
    assert_eq!(report.errors[0].attempts, 2);
    // Ranking over the surviving profiles still completes.
    let lp = leakprof::LeakProf::new(leakprof::Config {
        threshold: 1,
        ast_filter: false,
        top_n: 10,
    });
    let r = lp.analyze(&report.profiles);
    assert_eq!(r.profiles_analyzed, 2);
}

#[test]
fn connection_refused_target_degrades_only_itself() {
    let hub = hub_with(&["up-0", "up-1"]);
    let server = hub.serve("127.0.0.1:0", 4).expect("bind");
    // An ephemeral port with nothing listening: bind then immediately
    // drop, so connects are refused.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("addr")
    };
    let mut targets = targets_for(&hub, server.addr());
    targets.push(ScrapeTarget {
        instance: "down".into(),
        addr: dead_addr,
        path: ProfileHub::profile_path("down"),
    });
    let report = Scraper::new(fast_config()).scrape_cycle(&targets);
    assert_eq!(report.stats.succeeded, 2);
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.errors[0].instance, "down");
    assert_eq!(report.errors[0].kind, ScrapeErrorKind::Connect);
    let lp = leakprof::LeakProf::new(leakprof::Config {
        threshold: 1,
        ast_filter: false,
        top_n: 10,
    });
    assert_eq!(lp.analyze(&report.profiles).profiles_analyzed, 2);
}

#[test]
fn mid_body_disconnect_is_truncation() {
    let hub = hub_with(&["whole", "cut"]);
    hub.inject_fault("cut", Fault::DropMidBody);
    let server = hub.serve("127.0.0.1:0", 4).expect("bind");
    let report = Scraper::new(fast_config()).scrape_cycle(&targets_for(&hub, server.addr()));
    assert_eq!(report.stats.succeeded, 1);
    assert_eq!(report.errors[0].instance, "cut");
    assert_eq!(report.errors[0].kind, ScrapeErrorKind::Truncated);
    assert_eq!(
        report.stats.retries, 1,
        "the truncated target was retried once"
    );
}

#[test]
fn corrupt_json_is_a_parse_failure_not_a_transfer_failure() {
    let hub = hub_with(&["good", "garbled"]);
    hub.inject_fault("garbled", Fault::CorruptJson);
    let server = hub.serve("127.0.0.1:0", 4).expect("bind");
    let report = Scraper::new(fast_config()).scrape_cycle(&targets_for(&hub, server.addr()));
    assert_eq!(report.stats.succeeded, 1);
    assert_eq!(report.errors[0].instance, "garbled");
    assert_eq!(report.errors[0].kind, ScrapeErrorKind::Parse);
}

#[test]
fn slow_instance_elevates_latency_but_still_succeeds() {
    let hub = hub_with(&["f0", "f1", "f2", "f3", "laggard"]);
    // Delayed, but inside the read deadline: degraded, not failed.
    hub.inject_fault("laggard", Fault::Delay(Duration::from_millis(80)));
    let server = hub.serve("127.0.0.1:0", 4).expect("bind");
    let report = Scraper::new(fast_config()).scrape_cycle(&targets_for(&hub, server.addr()));
    assert_eq!(report.stats.succeeded, 5);
    assert_eq!(report.stats.failed, 0);
    assert!(
        report.stats.latency.max_us() >= 80_000,
        "slow instance shows up in the latency tail (max {} µs)",
        report.stats.latency.max_us()
    );
    assert!(report.stats.latency.p99_us() >= report.stats.latency.p50_us());
}

/// Health counters and per-cycle telemetry survive across multiple
/// degraded cycles, and the accumulator keeps ingesting whatever arrives.
#[test]
fn daemon_accumulates_across_cycles_with_persistent_fault() {
    let mut demo = DemoFleet::build(8, 1, 9);
    let server = demo.hub.serve("127.0.0.1:0", 4).expect("bind");
    let targets = demo.targets(server.addr());
    let victim = targets[0].instance.clone();
    demo.hub.inject_fault(&victim, Fault::CloseBeforeResponse);

    let dir = std::env::temp_dir().join(format!("leakprofd-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut daemon = Daemon::new(
        DaemonConfig {
            scrape: fast_config(),
            state_dir: Some(dir.clone()),
            ..Default::default()
        },
        demo.leakprof(40, 10),
        targets,
    )
    .expect("daemon with state dir");

    for _ in 0..3 {
        let cycle = daemon.run_cycle();
        assert_eq!(cycle.stats.failed, 1);
        assert_eq!(cycle.errors[0].instance, victim);
        demo.advance_and_republish(1);
    }
    let health = daemon.health();
    assert_eq!(health.cycles, 3);
    assert_eq!(health.scrapes_failed, 3);
    assert_eq!(
        health.scrapes_ok as usize,
        3 * (demo.hub.instances().len() - 1)
    );
    assert!(health.success_rate() > 0.8);

    let status = daemon.status();
    assert_eq!(status.cycles, 3);
    assert!(status.profiles_ingested > 0);

    // Every cycle's record is durable in the telemetry store.
    drop(daemon);
    let ts = timeseries::TsStore::open(dir.join("ts"), Default::default()).expect("reopen");
    let walls = ts.query(leakprof::series::CYCLE_WALL_MS_ID, 0, u64::MAX, Some(1));
    assert_eq!(walls.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
