//! `leakprofd` — the continuous profile-collection and streaming-analysis
//! daemon, plus self-contained demo modes.
//!
//! ```text
//! leakprofd serve       [--instances N] [--days D] [--seed S] [--port P]
//!                       [--cycles N] [--interval-ms MS] [--threshold T]
//!                       [--top N] [--state-dir PATH] [--snapshot-every N]
//!                       [--source-dir PATH]
//!                       [--keepalive BOOL] [--adaptive]
//!                       [--interval-min-ms MS] [--interval-max-ms MS]
//!                       [--shard I/N] [--shard-map PATH]
//!                       [--push] [--push-queue N] [--push-shards N]
//!                       [--accept-pending N] [--http-workers N]
//! leakprofd scrape-once [--addr HOST:PORT] [--instances N] [--days D]
//!                       [--seed S] [--threshold T] [--top N] [--workers N]
//!                       [--source-dir PATH]
//! leakprofd status      --addr HOST:PORT [--addr ...]
//! leakprofd top         --addr HOST:PORT [--addr ...] [--refresh-ms MS]
//!                       [--frames N]
//! leakprofd trace       --addr HOST:PORT [--out PATH]
//! leakprofd flame       --addr HOST:PORT [--out PATH] [--txt]
//!                       [--from N --to N] [--self]
//! leakprofd recover     --state-dir PATH [--threshold T] [--top N]
//!                       [--source-dir PATH]
//! leakprofd backtest    --state-dir PATH [--out DIR] [--week-len N] [--top N]
//! leakprofd merge       --state-dir PATH [--state-dir ...] [--out DIR]
//!                       [--threshold T] [--top N]
//! leakprofd fleet       --shard-addr HOST:PORT [--shard-addr ...]
//!                       [--port P] [--interval-ms MS] [--polls N]
//!                       [--shards N | --shard-map PATH] [--out-map PATH]
//! leakprofd chaos       [--instances N] [--cycles N] [--seed S]
//!                       [--restart-every N] [--state-dir PATH]
//! leakprofd push        --addr HOST:PORT --fleet-addr HOST:PORT
//!                       [--pushers N] [--rounds N] [--watermark N]
//!                       [--heartbeat N] [--interval-ms MS] [--seed S]
//! ```
//!
//! The criterion-2 static filter defaults to **off**. `--source-dir
//! PATH` turns it on by enabling the daemon's static tier: sources under
//! PATH are parsed once, their transient verdicts cached in a persistent
//! `verdicts.json` (in `--state-dir` when given, else in PATH), and
//! every later cycle — and every later daemon start — answers filter
//! queries from the cache without parsing. Demo modes write the fleet's
//! handler sources into PATH first.
//!
//! * `serve` stands up a demo fleet behind one loopback HTTP listener,
//!   then runs scrape cycles against it, exposing the daemon's own
//!   `/metrics` and `/status` on an adjacent port. With `--cycles 0`
//!   (default) it runs until interrupted. With `--state-dir` the daemon
//!   is crash-safe: snapshot + WAL recovery, persistent report ledger,
//!   and a durable multi-resolution telemetry store behind `/health`
//!   and `/api/series`. With `--adaptive` the scrape interval is
//!   trend-driven: it backs off toward `--interval-max-ms` while the
//!   fleet is quiet and tightens toward `--interval-min-ms` when the
//!   top-K changes or a site's trend fires.
//! * `scrape-once` runs exactly one scatter-gather cycle — against
//!   `--addr` if given, otherwise against a freshly built demo fleet —
//!   and prints the ranked report plus scrape-health stats.
//! * `status` polls one or more serving daemons (or a fleet aggregator)
//!   and renders per-shard rows above the merged ranking.
//! * `top` polls a serving daemon's `/status` and renders a live text
//!   dashboard: cycle counters, per-stage latency quantiles, breaker
//!   and keep-alive pool state, and the current top suspects.
//! * `trace` exports a serving daemon's `/trace` span trees in Chrome
//!   trace-event format (load the file in `chrome://tracing` or
//!   Perfetto; without `--out` the JSON goes to stdout).
//! * `flame` fetches a serving daemon's (or fleet aggregator's)
//!   blocked-goroutine flamegraph: the self-contained SVG/HTML by
//!   default, the collapsed folded-stack text with `--txt` (pipe it to
//!   `inferno-flamegraph` or load in speedscope). `--from N --to N`
//!   renders the *differential* flame — growth between two cycle (or
//!   fleet poll) indices — and `--self` the daemon's own worker/stage
//!   self-time flame instead.
//! * `recover` inspects a state directory offline: what a restarting
//!   daemon would reconstruct (snapshot + WAL replay), the ranking it
//!   would resume with, and the report ledger.
//! * `backtest` replays the telemetry store a daemon persisted under
//!   `--state-dir` offline into weekly per-site trend tables — the same
//!   classification path as the live `/health`, so verdicts reproduce
//!   exactly. `--out DIR` also writes `report.txt`, `weekly_rms.csv`,
//!   and `verdicts.csv`.
//! * **Sharded collection**: `serve --shard I/N` scrapes only the slice
//!   a deterministic rendezvous map assigns seat I (from `--shard-map`
//!   when given, else the canonical N-seat map), tagging its state dir
//!   with the shard identity. `merge` folds N shard state dirs into one
//!   fleet-wide state — byte-identical ranking to a single whole-fleet
//!   daemon — and `--out DIR` persists it as a regular state dir.
//!   `fleet` is the live merge tier: it polls each `--shard-addr`'s
//!   `/api/snapshot` behind circuit breakers, marks dark slices stale
//!   (their last snapshot keeps contributing), emits a rebalanced map
//!   on failover (`--out-map`), and serves the merged `/status`,
//!   `/health`, `/metrics`, `/api/snapshot`. `status`/`top` accept
//!   repeated `--addr` and render one freshness row per shard above
//!   the merged ranking.
//! * `chaos` runs the deterministic chaos harness (scrape faults,
//!   instance churn, kill/restart) against a demo fleet and reports
//!   whether the crash-safety invariants held.
//! * **Push-mode ingestion**: `serve --push` opens `POST /api/push` —
//!   instances deliver their own profiles instead of (or in addition
//!   to) being scraped. Admission is bounded: beyond `--push-queue`
//!   profiles in flight the daemon sheds with `429 Retry-After`
//!   (deterministic jittered hints), and beyond `--accept-pending`
//!   queued connections the accept pool sheds with `503 Retry-After`.
//!   Push and pull land in one ranking, newest profile per instance
//!   winning. `push` is the client: it discovers instances at
//!   `--fleet-addr`, polls their profiles, and pushes each to
//!   `--addr`'s `/api/push` when the blocked-goroutine count crosses
//!   `--watermark` (or every `--heartbeat` polls), retrying shed
//!   pushes with capped exponential backoff honoring `Retry-After`.
//!
//! The serving daemon also dogfoods the analysis pipeline on itself: it
//! tracks its own worker threads (driver, scrape pool, endpoint pool)
//! on a worker board and serves them at `/debug/self` in the exact
//! profile JSON format the fleet instances serve — so
//! `leakprofd scrape-once --addr <daemon> --threshold 1` produces a
//! leak ranking over the daemon's **own** blocking sites.
//!
//! Exit code: 0 on success (scrape-once: even with suspects), 1 when a
//! cycle scraped nothing at all (or chaos invariants failed), 2 on
//! usage/IO errors.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use collector::{
    backtest_store, fold_order, fold_snapshot, merge_state_dirs, render_table, run_chaos,
    serve_daemon_endpoints_with, serve_fleet_endpoints, write_merged, write_report, AdaptiveConfig,
    ApiSnapshot, BacktestConfig, ChaosConfig, ChaosPlanConfig, Daemon, DaemonConfig, DemoFleet,
    FleetAggregator, FleetConfig, FleetHealth, MergeConfig, ProfileHub, PushClient, PushConfig,
    PushError, ReportLedger, ScrapeConfig, ScrapeTarget, ShardSpec, SnapshotStore,
    WatermarkTrigger,
};
use leaklab_cli::{flag, flags_all, split_flags};
use leakprof::FleetAccumulator;
use shardmap::ShardMap;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let (_, flags) = split_flags(args);
    match cmd.as_str() {
        "serve" => serve(&flags),
        "scrape-once" => scrape_once(&flags),
        "status" => status(&flags),
        "top" => top(&flags),
        "trace" => trace(&flags),
        "flame" => flame_cmd(&flags),
        "recover" => recover(&flags),
        "backtest" => backtest(&flags),
        "merge" => merge_cmd(&flags),
        "fleet" => fleet_cmd(&flags),
        "chaos" => chaos(&flags),
        "push" => push_cmd(&flags),
        "racecheck" => racecheck_cmd(&flags),
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: leakprofd <serve|scrape-once|status|top|trace|flame|recover|backtest|merge|fleet|chaos|push|racecheck> [flags]\n\
         \x20 serve       [--instances N] [--days D] [--seed S] [--port P] [--cycles N]\n\
         \x20             [--interval-ms MS] [--threshold T] [--top N]\n\
         \x20             [--state-dir PATH] [--snapshot-every N] [--source-dir PATH]\n\
         \x20             [--race-dir PATH]\n\
         \x20             [--adaptive] [--interval-min-ms MS] [--interval-max-ms MS]\n\
         \x20             [--shard I/N] [--shard-map PATH]\n\
         \x20             [--push] [--push-queue N] [--push-shards N] [--accept-pending N]\n\
         \x20             [--http-workers N] [--tail-sample]\n\
         \x20 scrape-once [--addr HOST:PORT] [--instances N] [--days D] [--seed S]\n\
         \x20             [--threshold T] [--top N] [--workers N] [--source-dir PATH]\n\
         \x20 status      --addr HOST:PORT [--addr ...] [--threshold T] [--top N]\n\
         \x20 top         --addr HOST:PORT [--addr ...] [--refresh-ms MS] [--frames N]\n\
         \x20             [--threshold T] [--top N]\n\
         \x20 trace       --addr HOST:PORT [--addr ...] [--out PATH]\n\
         \x20 flame       --addr HOST:PORT [--out PATH] [--txt] [--from N --to N] [--self]\n\
         \x20 recover     --state-dir PATH [--threshold T] [--top N] [--source-dir PATH]\n\
         \x20 backtest    --state-dir PATH [--out DIR] [--week-len N] [--top N]\n\
         \x20 merge       --state-dir PATH [--state-dir ...] [--out DIR] [--threshold T] [--top N]\n\
         \x20 fleet       --shard-addr HOST:PORT [--shard-addr ...] [--port P] [--interval-ms MS]\n\
         \x20             [--polls N] [--shards N | --shard-map PATH] [--out-map PATH]\n\
         \x20             [--threshold T] [--top N]\n\
         \x20 chaos       [--instances N] [--cycles N] [--seed S] [--restart-every N]\n\
         \x20             [--state-dir PATH]\n\
         \x20 push        --addr HOST:PORT --fleet-addr HOST:PORT [--pushers N] [--rounds N]\n\
         \x20             [--watermark N] [--heartbeat N] [--interval-ms MS] [--seed S]\n\
         \x20             [--trace-out PATH]\n\
         \x20 racecheck   --dir PATH [--entry NAME] [--seed S] [--ticks N] [--json]\n\
         \x20             (exit 0: race-free, 1: races found, 2: error)"
    );
}

fn parsed<T: std::str::FromStr>(flags: &[(String, String)], name: &str, default: T) -> T {
    flag(flags, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The ranking every subcommand starts from: `--threshold` (default
/// 40) and `--top` (default 10), criterion-2 filter off — a static tier
/// turns it on when one is configured.
fn ranker(flags: &[(String, String)]) -> leakprof::LeakProf {
    leakprof::LeakProf::new(leakprof::Config {
        threshold: parsed(flags, "threshold", 40),
        ast_filter: false,
        top_n: parsed(flags, "top", 10),
    })
}

/// Builds the static-tier config when `--source-dir` is present. The
/// verdict cache lands in the state dir when one is configured,
/// otherwise as `verdicts.json` beside the sources (only `.go` files
/// are scanned, so the cache never shadows a source file).
fn static_tier_config(
    flags: &[(String, String)],
    state_dir: Option<&std::path::Path>,
) -> Option<collector::StaticTierConfig> {
    let src = std::path::PathBuf::from(flag(flags, "source-dir")?);
    let dir = state_dir.unwrap_or(&src).to_path_buf();
    Some(collector::StaticTierConfig::in_state_dir(src, &dir))
}

/// Builds the race-tier config when `--race-dir` is present. The
/// suspect cache lands in the state dir when one is configured,
/// otherwise as `races.json` beside the sources.
fn race_tier_config(
    flags: &[(String, String)],
    state_dir: Option<&std::path::Path>,
) -> Option<collector::RaceTierConfig> {
    let src = std::path::PathBuf::from(flag(flags, "race-dir")?);
    let dir = state_dir.unwrap_or(&src).to_path_buf();
    Some(collector::RaceTierConfig::in_state_dir(src, &dir))
}

/// Parses `--shard I/N` (+ optional `--shard-map PATH`) into a
/// [`ShardSpec`]. Without `--shard-map` the canonical N-seat map is
/// used — every shard computing `ShardMap::new(N)` independently gets
/// the identical assignment, so no coordination is needed.
fn shard_spec(flags: &[(String, String)]) -> Result<Option<ShardSpec>, ExitCode> {
    let Some(spec) = flag(flags, "shard") else {
        return Ok(None);
    };
    let parsed: Option<(u32, u32)> = spec
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)));
    let Some((index, of)) = parsed else {
        eprintln!("error: --shard must be I/N (e.g. 0/3), got {spec}");
        return Err(ExitCode::from(2));
    };
    let map = match flag(flags, "shard-map") {
        Some(path) => ShardMap::load(std::path::Path::new(path)).map_err(|e| {
            eprintln!("error: cannot load shard map {path}: {e}");
            ExitCode::from(2)
        })?,
        None => ShardMap::new(of),
    };
    if map.total() != of {
        eprintln!(
            "error: --shard {spec} does not match the {}-seat shard map",
            map.total()
        );
        return Err(ExitCode::from(2));
    }
    if index >= of {
        eprintln!("error: --shard index {index} out of range for {of} shard(s)");
        return Err(ExitCode::from(2));
    }
    Ok(Some(ShardSpec { map, index }))
}

fn build_demo(flags: &[(String, String)]) -> (DemoFleet, collector::HttpServer) {
    let instances: usize = parsed(flags, "instances", 100);
    let seed: u64 = parsed(flags, "seed", 7);
    let days: u32 = parsed(flags, "days", 3);
    eprintln!(
        "leakprofd: building demo fleet ({instances} instances, {days} day(s) of traffic, seed {seed})..."
    );
    let demo = DemoFleet::build(instances, days, seed);
    let server = demo.hub.serve("127.0.0.1:0", 8).expect("loopback bind");
    eprintln!(
        "leakprofd: fleet of {} instances listening on http://{}",
        demo.hub.instances().len(),
        server.addr()
    );
    (demo, server)
}

fn scrape_once(flags: &[(String, String)]) -> ExitCode {
    let static_tier = static_tier_config(flags, None);
    let scrape = ScrapeConfig {
        workers: parsed(flags, "workers", 0),
        jitter_seed: parsed(flags, "seed", 7u64),
        keepalive: parsed(flags, "keepalive", false),
        ..ScrapeConfig::default()
    };

    // Keep demo-fleet state (and its server) alive for the scrape.
    let demo_parts;
    let (lp, targets) = match flag(flags, "addr") {
        Some(addr) => {
            // Against an external hub: discover instances via /instances.
            let addr: std::net::SocketAddr = match addr.parse() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: bad --addr {addr}: {e}");
                    return ExitCode::from(2);
                }
            };
            let body = match collector::http_get(
                addr,
                "/instances",
                std::time::Duration::from_millis(500),
                std::time::Duration::from_millis(1000),
            ) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: cannot list instances at {addr}: {e}");
                    return ExitCode::from(2);
                }
            };
            let ids: Vec<String> = match std::str::from_utf8(&body)
                .ok()
                .and_then(|s| serde_json::from_str(s).ok())
            {
                Some(ids) => ids,
                None => {
                    eprintln!("error: {addr}/instances did not return a JSON string array");
                    return ExitCode::from(2);
                }
            };
            let targets = ids
                .into_iter()
                .map(|id| ScrapeTarget {
                    path: ProfileHub::profile_path(&id),
                    instance: id,
                    addr,
                })
                .collect();
            (ranker(flags), targets)
        }
        None => {
            let (demo, server) = build_demo(flags);
            if let Some(tier) = &static_tier {
                if let Err(e) = demo.write_sources(&tier.source_dir) {
                    eprintln!(
                        "error: cannot write sources to {}: {e}",
                        tier.source_dir.display()
                    );
                    return ExitCode::from(2);
                }
            }
            let targets = demo.targets(server.addr());
            demo_parts = (demo, server);
            let _ = &demo_parts;
            (ranker(flags), targets)
        }
    };

    let mut daemon = match Daemon::new(
        DaemonConfig {
            scrape,
            static_tier,
            ..DaemonConfig::default()
        },
        lp,
        targets,
    ) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let cycle = daemon.run_cycle();
    let wall = started.elapsed();

    println!("{}", cycle.stats.render());
    for e in &cycle.errors {
        println!(
            "  failed: {} after {} attempt(s): {} ({})",
            e.instance, e.attempts, e.kind, e.detail
        );
    }
    if let Some(report) = daemon.last_report() {
        print!("{}", report.render());
    }
    println!("cycle wall time: {:.2} s", wall.as_secs_f64());
    if cycle.stats.succeeded == 0 && cycle.stats.targets > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn serve(flags: &[(String, String)]) -> ExitCode {
    let cycles: u64 = parsed(flags, "cycles", 0);
    let interval_ms: u64 = parsed(flags, "interval-ms", 1000);
    let port: u16 = parsed(flags, "port", 0);

    let state_dir = flag(flags, "state-dir").map(std::path::PathBuf::from);
    let static_tier = static_tier_config(flags, state_dir.as_deref());
    let race_tier = race_tier_config(flags, state_dir.as_deref());
    let shard = match shard_spec(flags) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let (mut demo, fleet_server) = build_demo(flags);
    if let Some(tier) = &static_tier {
        if let Err(e) = demo.write_sources(&tier.source_dir) {
            eprintln!(
                "error: cannot write sources to {}: {e}",
                tier.source_dir.display()
            );
            return ExitCode::from(2);
        }
    }
    let targets = demo.targets(fleet_server.addr());
    // With --source-dir the daemon's static tier installs cached
    // verdicts and turns the filter on itself.
    let lp = ranker(flags);

    let config = DaemonConfig {
        scrape: ScrapeConfig {
            jitter_seed: parsed(flags, "seed", 7u64),
            // Keep-alive on by default: the daemon re-scrapes the same
            // fleet every cycle, the textbook case for pooling.
            keepalive: parsed(flags, "keepalive", true),
            ..ScrapeConfig::default()
        },
        state_dir,
        snapshot_every: parsed(flags, "snapshot-every", 5u64).max(1),
        trace: obs::TraceConfig {
            // Tail sampling keeps full span detail only for flagged or
            // slow cycles; stage histograms stay always-on either way.
            tail_sample: parsed(flags, "tail-sample", false),
            ..obs::TraceConfig::default()
        },
        static_tier,
        race_tier,
        adaptive: if parsed(flags, "adaptive", false) {
            AdaptiveConfig::enabled(
                parsed(flags, "interval-min-ms", 250),
                parsed(flags, "interval-max-ms", 8000),
                interval_ms,
            )
        } else {
            AdaptiveConfig::default()
        },
        shard,
        ingest: parsed(flags, "push", false).then(|| collector::IngestConfig {
            queue_capacity: parsed(flags, "push-queue", 4096),
            shards: parsed(flags, "push-shards", 4),
            accept_pending: parsed(flags, "accept-pending", 1024),
            jitter_seed: parsed(flags, "seed", 7u64),
            ..collector::IngestConfig::default()
        }),
        ..DaemonConfig::default()
    };
    let push_enabled = config.ingest.is_some();
    let http_workers: usize = parsed(flags, "http-workers", 2);
    let daemon = match Daemon::new(config, lp, targets) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot open daemon state: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = daemon.shard() {
        println!(
            "leakprofd: shard {id}: scraping {} of {} instance(s)",
            daemon.targets().len(),
            demo.hub.instances().len()
        );
    }
    if daemon.recovered_cycle() > 0 {
        println!(
            "leakprofd: recovered durable state up to cycle {}",
            daemon.recovered_cycle()
        );
    }
    let daemon = Arc::new(Mutex::new(daemon));
    let endpoints = match serve_daemon_endpoints_with(
        Arc::clone(&daemon),
        &format!("127.0.0.1:{port}"),
        http_workers,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind daemon endpoints: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "leakprofd: serving /metrics, /status, /trace, /logs, /debug/self{} on http://{} (fleet at http://{})",
        if push_enabled { ", /api/push" } else { "" },
        endpoints.addr(),
        fleet_server.addr()
    );

    // Dogfood: the driver loop is itself a tracked worker, so the
    // daemon's own /debug/self profile shows whether it is mid-cycle
    // or parked between cycles — and `scrape-once --addr` ranks it.
    let driver = daemon
        .lock()
        .expect("daemon poisoned")
        .worker_board()
        .register("driver", obs::site!("leakprofd::serve"));

    let mut ran = 0u64;
    loop {
        driver.set(
            obs::WorkerState::Analyze,
            obs::site!("leakprofd::serve::cycle"),
        );
        let report = daemon.lock().expect("daemon poisoned").run_cycle();
        ran += 1;
        println!("cycle {ran}: {}", report.stats.render());
        {
            let d = daemon.lock().expect("daemon poisoned");
            if let Some(outcome) = d.last_outcome() {
                for fp in &outcome.reported {
                    println!("  paged: {fp}");
                }
            }
        }
        if report.stats.succeeded == 0 && report.stats.targets > 0 {
            eprintln!("leakprofd: cycle scraped nothing; aborting");
            return ExitCode::from(1);
        }
        if cycles > 0 && ran >= cycles {
            break;
        }
        driver.set(
            obs::WorkerState::Idle,
            obs::site!("leakprofd::serve::interval_sleep"),
        );
        // With --adaptive the controller decides the pacing; otherwise
        // the fixed --interval-ms.
        let sleep_ms = {
            let d = daemon.lock().expect("daemon poisoned");
            let adaptive = d.adaptive_status();
            if adaptive.enabled && adaptive.last_change_cycle == d.health().cycles {
                println!(
                    "  interval -> {} ms ({})",
                    adaptive.interval_ms, adaptive.last_change_reason
                );
            }
            d.current_interval_ms(interval_ms)
        };
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        demo.advance_and_republish(1);
    }
    let mut daemon = daemon.lock().expect("daemon poisoned");
    // Clean shutdown: checkpoint so the next start replays no WAL.
    if let Err(e) = daemon.commit_snapshot() {
        eprintln!("leakprofd: final snapshot failed: {e}");
    }
    if let Err(e) = daemon.flush_telemetry() {
        eprintln!("leakprofd: telemetry flush failed: {e}");
    }
    if let Some(report) = daemon.last_report() {
        print!("{}", report.render());
    }
    print!("{}", daemon.metrics_text());
    ExitCode::SUCCESS
}

fn status(flags: &[(String, String)]) -> ExitCode {
    let addr_values = flags_all(flags, "addr");
    if addr_values.is_empty() {
        eprintln!("usage: leakprofd status --addr HOST:PORT [--addr ...]");
        return ExitCode::from(2);
    }
    let addrs = match parse_addrs(&addr_values, "addr") {
        Ok(a) => a,
        Err(code) => return code,
    };
    let peeks: Vec<ShardPeek> = addrs.into_iter().map(peek_shard).collect();
    print!("{}", render_overview(&peeks, &ranker(flags)));
    ExitCode::SUCCESS
}

/// Parses `--addr`, printing a usage line naming `cmd` when absent or
/// malformed.
fn addr_flag(flags: &[(String, String)], cmd: &str) -> Result<std::net::SocketAddr, ExitCode> {
    let Some(addr) = flag(flags, "addr") else {
        eprintln!("usage: leakprofd {cmd} --addr HOST:PORT");
        return Err(ExitCode::from(2));
    };
    addr.parse().map_err(|e| {
        eprintln!("error: bad --addr {addr}: {e}");
        ExitCode::from(2)
    })
}

/// GETs `path` from a serving daemon and returns the UTF-8 body.
fn fetch(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    let body = collector::http_get(
        addr,
        path,
        std::time::Duration::from_millis(1000),
        std::time::Duration::from_millis(2000),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    String::from_utf8(body).map_err(|e| format!("{path}: not UTF-8: {e}"))
}

/// Parses a repeated address flag, naming the flag in errors.
fn parse_addrs(values: &[&str], flag_name: &str) -> Result<Vec<std::net::SocketAddr>, ExitCode> {
    values
        .iter()
        .map(|a| {
            a.parse().map_err(|e| {
                eprintln!("error: bad --{flag_name} {a}: {e}");
                ExitCode::from(2)
            })
        })
        .collect()
}

/// One polled daemon in the multi-address overview: its snapshot (the
/// merge input), its breaker counters if it serves a daemon `/status`,
/// or why it could not be reached.
struct ShardPeek {
    addr: std::net::SocketAddr,
    snap: Option<ApiSnapshot>,
    breakers: Option<collector::BreakerSummary>,
    error: Option<String>,
}

/// Fetches one peer's `/api/snapshot` (and, best-effort, its `/status`
/// breaker counters — a fleet aggregator serves a different status
/// document, so this stays optional).
fn peek_shard(addr: std::net::SocketAddr) -> ShardPeek {
    match fetch(addr, "/api/snapshot").and_then(|body| {
        serde_json::from_str::<ApiSnapshot>(&body).map_err(|e| format!("/api/snapshot: {e}"))
    }) {
        Ok(snap) => {
            let breakers = fetch(addr, "/status")
                .ok()
                .and_then(|body| serde_json::from_str::<collector::DaemonStatus>(&body).ok())
                .map(|s| s.breakers);
            ShardPeek {
                addr,
                snap: Some(snap),
                breakers,
                error: None,
            }
        }
        Err(e) => ShardPeek {
            addr,
            snap: None,
            breakers: None,
            error: Some(e),
        },
    }
}

/// Renders the multi-address overview: one freshness row per shard in
/// fold order, then the client-side merged ranking and deduplicated
/// ledger counts.
fn render_overview(peeks: &[ShardPeek], lp: &leakprof::LeakProf) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut order: Vec<&ShardPeek> = peeks.iter().collect();
    order.sort_by_key(|p| {
        let shard = p.snap.as_ref().and_then(|s| s.shard.as_ref());
        fold_order(shard, p.addr.to_string())
    });
    let _ = writeln!(
        out,
        "{:<8} {:<21} {:>6} {:>7} {:>8}  {:<16} state",
        "shard", "addr", "cycle", "targets", "ingested", "breakers"
    );
    let mut acc = FleetAccumulator::new();
    let mut ledger = ReportLedger::new(Default::default());
    let mut reachable = 0usize;
    for p in order {
        match &p.snap {
            Some(snap) => {
                reachable += 1;
                let shard = snap
                    .shard
                    .as_ref()
                    .map_or("whole".to_string(), |s| format!("{}/{}", s.shard, s.of));
                let breakers = p.breakers.as_ref().map_or("-".to_string(), |b| {
                    format!("{}c/{}o/{}h", b.closed, b.open, b.half_open)
                });
                let _ = writeln!(
                    out,
                    "{:<8} {:<21} {:>6} {:>7} {:>8}  {:<16} fresh",
                    shard,
                    p.addr,
                    snap.cycle,
                    snap.targets,
                    snap.acc.instances.len(),
                    breakers
                );
                if let Err(e) = fold_snapshot(&mut acc, &mut ledger, snap) {
                    let _ = writeln!(out, "  warning: bad snapshot from {}: {e}", p.addr);
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<8} {:<21} {:>6} {:>7} {:>8}  {:<16} stale ({})",
                    "?",
                    p.addr,
                    "-",
                    "-",
                    "-",
                    "-",
                    p.error.as_deref().unwrap_or("unreachable")
                );
            }
        }
    }
    if reachable == 0 {
        let _ = writeln!(out, "\nno shard answered; nothing to merge");
        return out;
    }
    let _ = writeln!(
        out,
        "\nmerged view ({reachable}/{} shard(s), {} profiles):",
        peeks.len(),
        acc.profiles_ingested()
    );
    let _ = write!(out, "{}", lp.report_from_accumulator(&acc).render());
    let _ = writeln!(out, "{}", ledger.summary());
    out
}

/// Live text dashboard over a serving daemon's `/status` — or, with
/// repeated `--addr`, a per-shard freshness board above the merged
/// fleet ranking.
fn top(flags: &[(String, String)]) -> ExitCode {
    let addr_values = flags_all(flags, "addr");
    if addr_values.len() > 1 {
        let addrs = match parse_addrs(&addr_values, "addr") {
            Ok(a) => a,
            Err(code) => return code,
        };
        let refresh_ms: u64 = parsed(flags, "refresh-ms", 1000);
        let frames: u64 = parsed(flags, "frames", 0);
        let lp = ranker(flags);
        let mut shown = 0u64;
        loop {
            let peeks: Vec<ShardPeek> = addrs.iter().copied().map(peek_shard).collect();
            if shown > 0 {
                print!("\x1b[2J\x1b[H");
            }
            println!("leakprofd top — {} shard(s)", addrs.len());
            print!("{}", render_overview(&peeks, &lp));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            shown += 1;
            if frames > 0 && shown >= frames {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
        }
        return ExitCode::SUCCESS;
    }
    let addr = match addr_flag(flags, "top") {
        Ok(a) => a,
        Err(code) => return code,
    };
    let refresh_ms: u64 = parsed(flags, "refresh-ms", 1000);
    let frames: u64 = parsed(flags, "frames", 0);
    let mut shown = 0u64;
    loop {
        let status: collector::DaemonStatus = match fetch(addr, "/status")
            .and_then(|body| serde_json::from_str(&body).map_err(|e| format!("/status: {e}")))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        // Health (trend verdicts + sparklines) is best-effort: absent
        // before the first cycle completes.
        let health: Option<FleetHealth> = fetch(addr, "/health")
            .ok()
            .and_then(|body| serde_json::from_str(&body).ok());
        if shown > 0 {
            // Repaint in place so the dashboard refreshes rather than
            // scrolls.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(addr, &status, health.as_ref()));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        shown += 1;
        if frames > 0 && shown >= frames {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
    }
    ExitCode::SUCCESS
}

/// One dashboard frame.
fn render_top(
    addr: std::net::SocketAddr,
    s: &collector::DaemonStatus,
    health: Option<&FleetHealth>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "leakprofd top — {addr}");
    let _ = writeln!(
        out,
        "cycles {}  targets {}  ingested {}  success {:.1}%  scrape p50 {} µs  p99 {} µs",
        s.cycles,
        s.targets,
        s.profiles_ingested,
        s.success_rate * 100.0,
        s.p50_us,
        s.p99_us
    );
    let _ = writeln!(
        out,
        "breakers  closed {}  open {}  half-open {}  (opened {} all-time)",
        s.breakers.closed, s.breakers.open, s.breakers.half_open, s.breakers.opened_total
    );
    let ka = &s.keepalive;
    let conn_total = ka.reused + ka.fresh;
    let reuse_pct = if conn_total > 0 {
        ka.reused as f64 / conn_total as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "conns     reused {}  fresh {}  expired {}  reuse-failures {}  (reuse {reuse_pct:.0}%)",
        ka.reused, ka.fresh, ka.expired, ka.reuse_failures
    );
    let _ = writeln!(
        out,
        "spans     recorded {}  dropped {}",
        s.spans_recorded, s.spans_dropped
    );
    let _ = writeln!(
        out,
        "ledger    tracked {}  active {}  paged {}  suppressed {}",
        s.ledger.tracked, s.ledger.active, s.ledger.reported_total, s.ledger.suppressed_total
    );
    let a = &s.adaptive;
    if a.enabled {
        let _ = writeln!(
            out,
            "interval  {} ms  (last change: {} @ cycle {}; tightened {}x, backed off {}x)",
            a.interval_ms,
            a.last_change_reason,
            a.last_change_cycle,
            a.tightened_total,
            a.backed_off_total
        );
    }
    if !s.stages.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12} {:>8} {:>10} {:>10} {:>10}",
            "stage", "count", "p50 µs", "p99 µs", "max µs"
        );
        for st in &s.stages {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>10} {:>10} {:>10}",
                st.stage, st.count, st.p50_us, st.p99_us, st.max_us
            );
        }
    }
    if s.top.is_empty() {
        let _ = writeln!(out, "\nno suspects above threshold");
    } else {
        let _ = writeln!(out, "\ntop suspects:");
        for (i, t) in s.top.iter().enumerate() {
            let _ = writeln!(
                out,
                " #{:<2} {}  rms {:.1}  total {}  max-instance {}",
                i + 1,
                t.op,
                t.rms,
                t.total,
                t.max_instance
            );
        }
    }
    if let Some(h) = health {
        if !h.sites.is_empty() {
            let _ = writeln!(out, "\ntrends (cycle {}):", h.cycle);
            for site in &h.sites {
                let _ = writeln!(
                    out,
                    " {} {:<10} {}  — {}",
                    collector::sparkline(&site.spark),
                    site.class,
                    site.fingerprint,
                    site.why
                );
            }
        }
    }
    out
}

/// Exports serving daemons' `/trace` as Chrome trace-event JSON. One
/// `--addr` keeps the flat single-process export; repeating the flag
/// stitches every process's snapshot into one timeline with per-process
/// lanes and cross-process flow arrows (the distributed trace view).
fn trace(flags: &[(String, String)]) -> ExitCode {
    let addr_values = flags_all(flags, "addr");
    if addr_values.is_empty() {
        eprintln!("usage: leakprofd trace --addr HOST:PORT [--addr ...] [--out PATH]");
        return ExitCode::from(2);
    }
    let addrs = match parse_addrs(&addr_values, "addr") {
        Ok(a) => a,
        Err(code) => return code,
    };
    let mut snapshots: Vec<obs::TraceSnapshot> = Vec::with_capacity(addrs.len());
    for addr in &addrs {
        // A daemon's /trace is a raw TraceSnapshot; a fleet
        // aggregator's /trace is an already-stitched Chrome array, so
        // fall back to its /trace/self for the restitchable snapshot.
        let snap = fetch(*addr, "/trace").and_then(|body| {
            if body.trim_start().starts_with('[') {
                fetch(*addr, "/trace/self").and_then(|body| {
                    serde_json::from_str(&body).map_err(|e| format!("/trace/self: {e}"))
                })
            } else {
                serde_json::from_str(&body).map_err(|e| format!("/trace: {e}"))
            }
        });
        match snap {
            Ok(s) => snapshots.push(s),
            Err(e) => {
                eprintln!("error: {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let spans: usize = snapshots
        .iter()
        .flat_map(|s| s.cycles.iter())
        .map(|c| c.spans.len())
        .sum();
    let cycles: usize = snapshots.iter().map(|s| s.cycles.len()).sum();
    let chrome = match snapshots.as_slice() {
        [one] => obs::to_chrome(one),
        many => obs::to_chrome_stitched(many),
    };
    match flag(flags, "out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &chrome) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "wrote {spans} span(s) across {cycles} cycle(s) from {} process(es) to {path} \
                 (open in chrome://tracing or Perfetto)",
                snapshots.len()
            );
        }
        None => println!("{chrome}"),
    }
    ExitCode::SUCCESS
}

/// Fetches a flamegraph from a serving daemon or fleet aggregator:
/// HTML/SVG by default, collapsed folded-stack text with `--txt`;
/// `--from`/`--to` selects the differential view, `--self` the
/// daemon's own worker/stage self-time flame.
fn flame_cmd(flags: &[(String, String)]) -> ExitCode {
    let Some(addr_value) = flag(flags, "addr") else {
        eprintln!("usage: leakprofd flame --addr HOST:PORT [--out PATH] [--txt] [--from N --to N] [--self]");
        return ExitCode::from(2);
    };
    let addrs = match parse_addrs(&[addr_value], "addr") {
        Ok(a) => a,
        Err(code) => return code,
    };
    let txt: bool = parsed(flags, "txt", false);
    let self_flame: bool = parsed(flags, "self", false);
    let path = if self_flame {
        if flag(flags, "from").is_some() || flag(flags, "to").is_some() {
            eprintln!("error: --self has no differential view (drop --from/--to)");
            return ExitCode::from(2);
        }
        if txt {
            "/flame/self.txt"
        } else {
            "/flame/self"
        }
        .to_string()
    } else {
        let base = if txt { "/flame.txt" } else { "/flame" };
        match (flag(flags, "from"), flag(flags, "to")) {
            (None, None) => base.to_string(),
            (Some(from), Some(to)) => format!("{base}?from={from}&to={to}"),
            _ => {
                eprintln!("error: --from and --to must be given together");
                return ExitCode::from(2);
            }
        }
    };
    let body = match fetch(addrs[0], &path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {}: {e}", addrs[0]);
            return ExitCode::from(2);
        }
    };
    match flag(flags, "out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &body) {
                eprintln!("error: cannot write {out}: {e}");
                return ExitCode::from(2);
            }
            println!(
                "wrote {} from {}{path} to {out}{}",
                if txt { "folded stacks" } else { "flamegraph" },
                addrs[0],
                if txt { "" } else { " (open in a browser)" },
            );
        }
        None => print!("{body}"),
    }
    ExitCode::SUCCESS
}

/// Offline inspection of a state directory: what a restarting daemon
/// would reconstruct, and the ranking it would resume with.
fn recover(flags: &[(String, String)]) -> ExitCode {
    let Some(dir) = flag(flags, "state-dir") else {
        eprintln!("usage: leakprofd recover --state-dir PATH [--threshold T] [--top N]");
        return ExitCode::from(2);
    };
    let store = match SnapshotStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let recovery = match store.recover() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot recover {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    if recovery.is_empty() {
        println!("no durable state in {dir}: a daemon would start fresh");
        return ExitCode::SUCCESS;
    }
    match &recovery.snapshot {
        Some(snap) => println!(
            "snapshot: cycle {} ({} profiles ingested)",
            snap.cycle, snap.health.scrapes_ok
        ),
        None => println!("no snapshot committed yet"),
    }
    let acc = match recovery.replay() {
        Ok((acc, _)) => acc,
        Err(e) => {
            eprintln!("error: snapshot does not restore: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "wal: {} replayable cycle(s){}",
        recovery.wal.len(),
        match &recovery.dropped_trailing {
            Some(e) => format!(" (+1 torn trailing entry discarded: {e})"),
            None => String::new(),
        }
    );
    println!(
        "a restarting daemon resumes at cycle {}",
        recovery.last_cycle()
    );

    let mut lp = ranker(flags);
    // Sources are not part of durable state, but --source-dir plus the
    // persisted verdict cache recovers the filter too — warm caches
    // answer without parsing anything.
    if let Some(tier_config) = static_tier_config(flags, Some(std::path::Path::new(dir))) {
        match collector::StaticTier::open(tier_config).and_then(|mut t| t.sync()) {
            Ok(verdicts) => {
                lp.install_verdicts(verdicts);
                lp.set_ast_filter(true);
            }
            Err(e) => eprintln!("warning: static tier unavailable: {e}"),
        }
    }
    print!("{}", lp.report_from_accumulator(&acc).render());

    let ledger_path = std::path::Path::new(dir).join("ledger.json");
    if ledger_path.exists() {
        match ReportLedger::open(&ledger_path, Default::default()) {
            Ok(ledger) => {
                println!("{}", ledger.summary());
                for e in ledger.entries() {
                    println!(
                        "  {} episode {} ({:?}) acked-rms {:.1} peak {:.1} owner {}",
                        e.fingerprint,
                        e.episode,
                        e.state,
                        e.acked_rms,
                        e.peak_rms,
                        e.owner.as_deref().unwrap_or("-")
                    );
                }
            }
            Err(e) => eprintln!("warning: ledger unreadable: {e}"),
        }
    }
    ExitCode::SUCCESS
}

/// Offline replay of fleet telemetry into weekly per-site trend tables
/// — the same classification path as the live `/health`.
fn backtest(flags: &[(String, String)]) -> ExitCode {
    let config = BacktestConfig {
        week_len: parsed(flags, "week-len", 7u64).max(1),
        top: parsed(flags, "top", 0usize),
        ..BacktestConfig::default()
    };
    let Some(dir) = flag(flags, "state-dir") else {
        eprintln!(
            "usage: leakprofd backtest --state-dir PATH [--out DIR] [--week-len N] [--top N]"
        );
        return ExitCode::from(2);
    };
    // The store a serving daemon persisted under --state-dir.
    let ts =
        match timeseries::TsStore::open(std::path::Path::new(dir).join("ts"), Default::default()) {
            Ok(ts) => ts,
            Err(e) => {
                eprintln!("error: cannot open telemetry store under {dir}: {e}");
                return ExitCode::from(2);
            }
        };
    let report = backtest_store(&ts, &config);
    print!("{}", render_table(&report));
    if let Some(out) = flag(flags, "out") {
        let out = std::path::Path::new(out);
        if let Err(e) = write_report(&report, out) {
            eprintln!("error: cannot write report to {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote report.txt, weekly_rms.csv, verdicts.csv to {}",
            out.display()
        );
    }
    ExitCode::SUCCESS
}

/// `leakprofd merge`: fold N shard state dirs (snapshot + WAL replay
/// each, exactly like a restarting daemon) into one fleet-wide ranking
/// — byte-identical to a single whole-fleet daemon's. `--out DIR`
/// persists the fold as a regular state dir.
fn merge_cmd(flags: &[(String, String)]) -> ExitCode {
    let dirs: Vec<std::path::PathBuf> = flags_all(flags, "state-dir")
        .into_iter()
        .map(std::path::PathBuf::from)
        .collect();
    if dirs.is_empty() {
        eprintln!(
            "usage: leakprofd merge --state-dir PATH [--state-dir ...] [--out DIR] \
             [--threshold T] [--top N]"
        );
        return ExitCode::from(2);
    }
    let config = MergeConfig::default();
    let mut merged = match merge_state_dirs(&dirs, &config) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: merge failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "merged {} shard state dir(s), fleet cycle {}:",
        merged.shards.len(),
        merged.cycle
    );
    for s in &merged.shards {
        let shard = s
            .shard
            .as_ref()
            .map_or("untagged".to_string(), |id| id.to_string());
        println!(
            "  {:<16} cycle {:>4}  {:>6} profiles  {}",
            shard, s.cycle, s.profiles_ingested, s.dir
        );
    }
    let lp = ranker(flags);
    print!("{}", lp.report_from_accumulator(&merged.acc).render());
    println!("{}", merged.ledger.summary());
    if let Some(out) = flag(flags, "out") {
        let out = std::path::Path::new(out);
        if let Err(e) = write_merged(out, &mut merged, &config) {
            eprintln!("error: cannot write merged state to {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote merged state dir to {} (snapshot + ledger.json + ts)",
            out.display()
        );
    }
    ExitCode::SUCCESS
}

/// `leakprofd fleet`: the long-running live merge tier. Polls each
/// `--shard-addr`'s `/api/snapshot` behind circuit breakers, serves
/// the merged endpoints, and — with `--shard-map`/`--out-map` — writes
/// every rebalanced map version out for shard daemons to pick up.
fn fleet_cmd(flags: &[(String, String)]) -> ExitCode {
    let addr_values = flags_all(flags, "shard-addr");
    if addr_values.is_empty() {
        eprintln!(
            "usage: leakprofd fleet --shard-addr HOST:PORT [--shard-addr ...] [--port P] \
             [--interval-ms MS] [--polls N] [--shards N | --shard-map PATH] [--out-map PATH] \
             [--threshold T] [--top N]"
        );
        return ExitCode::from(2);
    }
    let addrs = match parse_addrs(&addr_values, "shard-addr") {
        Ok(a) => a,
        Err(code) => return code,
    };
    let map = match flag(flags, "shard-map") {
        Some(path) => match ShardMap::load(std::path::Path::new(path)) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("error: cannot load shard map {path}: {e}");
                return ExitCode::from(2);
            }
        },
        // --shards N is the canonical N-seat map — the same one
        // `serve --shard I/N` uses without a map file.
        None => {
            let n: u32 = parsed(flags, "shards", 0);
            (n > 0).then(|| ShardMap::new(n))
        }
    };
    let lp = ranker(flags);
    let fleet = Arc::new(Mutex::new(FleetAggregator::new(
        FleetConfig {
            map,
            ..FleetConfig::new(addrs.clone())
        },
        lp,
    )));
    let port: u16 = parsed(flags, "port", 0);
    let mut server = match serve_fleet_endpoints(Arc::clone(&fleet), &format!("127.0.0.1:{port}")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind fleet endpoints: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "leakprofd: fleet tier over {} shard(s), serving merged /metrics, /status, /health, \
         /api/snapshot on http://{}",
        addrs.len(),
        server.addr()
    );
    let polls: u64 = parsed(flags, "polls", 0);
    let interval_ms: u64 = parsed(flags, "interval-ms", 1000);
    let out_map = flag(flags, "out-map").map(std::path::PathBuf::from);
    let mut saved_version = 0u64;
    let mut ran = 0u64;
    loop {
        let (answered, status) = {
            let mut f = fleet.lock().expect("fleet poisoned");
            let answered = f.poll_once();
            // Persist every new map version — the initial one, failover
            // rebalances, recoveries — so shard daemons can pick it up.
            if let (Some(path), Some(map)) = (&out_map, f.map()) {
                if map.version > saved_version {
                    match map.save(path) {
                        Ok(()) => {
                            saved_version = map.version;
                            println!(
                                "leakprofd: fleet: wrote shard map v{} to {}",
                                map.version,
                                path.display()
                            );
                        }
                        Err(e) => eprintln!("leakprofd: fleet: cannot write shard map: {e}"),
                    }
                }
            }
            (answered, f.status())
        };
        ran += 1;
        println!(
            "poll {ran}: {answered}/{} shard(s) answered, {} stale, {} profiles, {} suspect(s)",
            status.shards.len(),
            status.stale_shards,
            status.profiles_ingested,
            status.top.len()
        );
        if polls > 0 && ran >= polls {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    let f = fleet.lock().expect("fleet poisoned");
    if let Some(report) = f.last_report() {
        print!("{}", report.render());
    }
    print!("{}", f.metrics_text());
    drop(f);
    server.shutdown();
    ExitCode::SUCCESS
}

/// Runs the deterministic chaos harness against a demo fleet and
/// reports whether the crash-safety invariants held.
fn chaos(flags: &[(String, String)]) -> ExitCode {
    let seed: u64 = parsed(flags, "seed", 7);
    let state_dir = flag(flags, "state-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("leakprofd-chaos-{seed}")));
    let mut config = ChaosConfig::quick(seed, state_dir.clone());
    config.instances = parsed(flags, "instances", 8);
    config.cycles = parsed(flags, "cycles", 12u64);
    config.plan = ChaosPlanConfig {
        restart_every: parsed(flags, "restart-every", 4u64),
        ..ChaosPlanConfig::default()
    };
    println!(
        "leakprofd: chaos over {} instances, {} cycles, seed {seed}, state in {}",
        config.instances,
        config.cycles,
        state_dir.display()
    );
    match run_chaos(&config, |line| println!("{line}")) {
        Ok(outcome) => {
            println!("{}", outcome.render());
            if outcome.invariants_hold() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: chaos run failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// `leakprofd push`: the push client. Discovers instances at
/// `--fleet-addr`, then `--pushers` worker threads each poll their
/// slice of the fleet's profiles and push them to `--addr`'s
/// `/api/push` when the blocked count crosses `--watermark` (or every
/// `--heartbeat` polls), retrying shed pushes with capped exponential
/// backoff honoring `Retry-After`.
fn push_cmd(flags: &[(String, String)]) -> ExitCode {
    let daemon_addr = match addr_flag(flags, "push") {
        Ok(a) => a,
        Err(code) => return code,
    };
    let Some(fleet) = flag(flags, "fleet-addr") else {
        eprintln!("usage: leakprofd push --addr HOST:PORT --fleet-addr HOST:PORT");
        return ExitCode::from(2);
    };
    let fleet_addr: std::net::SocketAddr = match fleet.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bad --fleet-addr {fleet}: {e}");
            return ExitCode::from(2);
        }
    };
    let ids: Vec<String> = match fetch(fleet_addr, "/instances")
        .and_then(|body| serde_json::from_str(&body).map_err(|e| format!("/instances: {e}")))
    {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("error: cannot list instances at {fleet_addr}: {e}");
            return ExitCode::from(2);
        }
    };
    if ids.is_empty() {
        eprintln!("error: {fleet_addr} serves no instances");
        return ExitCode::from(1);
    }
    let pushers: usize = parsed(flags, "pushers", 4usize).max(1).min(ids.len());
    let rounds: u64 = parsed(flags, "rounds", 1);
    let watermark: u64 = parsed(flags, "watermark", 1);
    let heartbeat: u64 = parsed(flags, "heartbeat", 0);
    let interval_ms: u64 = parsed(flags, "interval-ms", 500);
    let seed: u64 = parsed(flags, "seed", 7);
    let trace_out = flag(flags, "trace-out").map(String::from);
    println!(
        "leakprofd: pushing {} instance(s) from http://{fleet_addr} to http://{daemon_addr}/api/push \
         ({pushers} pusher(s), watermark {watermark})",
        ids.len()
    );
    let slices: Vec<Vec<String>> = {
        let mut slices = vec![Vec::new(); pushers];
        for (i, id) in ids.into_iter().enumerate() {
            slices[i % pushers].push(id);
        }
        slices
    };
    let traced = trace_out.is_some();
    let handles: Vec<_> = slices
        .into_iter()
        .enumerate()
        .map(|(pusher, slice)| {
            std::thread::spawn(move || {
                let mut client = PushClient::new(
                    daemon_addr,
                    PushConfig {
                        jitter_seed: seed,
                        ..PushConfig::default()
                    },
                );
                if traced {
                    let tracer = obs::Tracer::new(&obs::TraceConfig::default());
                    tracer.set_service(&format!("push-{pusher}"), env!("CARGO_PKG_VERSION"));
                    client.set_tracer(tracer);
                }
                let mut triggers: Vec<WatermarkTrigger> = slice
                    .iter()
                    .map(|_| WatermarkTrigger::new(watermark, heartbeat))
                    .collect();
                let mut round = 0u64;
                loop {
                    round += 1;
                    for (id, trigger) in slice.iter().zip(triggers.iter_mut()) {
                        let profile: gosim::GoroutineProfile =
                            match fetch(fleet_addr, &ProfileHub::profile_path(id))
                                .and_then(|b| serde_json::from_str(&b).map_err(|e| e.to_string()))
                            {
                                Ok(p) => p,
                                Err(e) => {
                                    eprintln!("leakprofd: push: cannot fetch {id}: {e}");
                                    continue;
                                }
                            };
                        if !trigger.should_push(profile.goroutines.len() as u64) {
                            continue;
                        }
                        match client.push(&profile) {
                            Ok(_) => {}
                            Err(e @ PushError::Rejected { .. }) => {
                                eprintln!("leakprofd: push: {id}: {e}");
                            }
                            // Shed budgets exhausted or transport down:
                            // drop this round's profile, the next round
                            // pushes a fresher one anyway.
                            Err(_) => {}
                        }
                    }
                    if rounds > 0 && round >= rounds {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                }
                let snapshot = traced.then(|| client.tracer().snapshot());
                (client.stats().clone(), snapshot)
            })
        })
        .collect();
    let mut total = collector::PushStats::default();
    let mut snapshots: Vec<obs::TraceSnapshot> = Vec::new();
    for h in handles {
        let (s, snapshot) = h.join().expect("pusher thread panicked");
        total.pushed += s.pushed;
        total.sheds += s.sheds;
        total.transport_errors += s.transport_errors;
        total.failed += s.failed;
        snapshots.extend(snapshot);
    }
    if let Some(path) = &trace_out {
        let chrome = match snapshots.as_slice() {
            [one] => obs::to_chrome(one),
            many => obs::to_chrome_stitched(many),
        };
        if let Err(e) = std::fs::write(path, &chrome) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {} pusher trace(s) to {path} (stitch with `leakprofd trace --addr ...` \
             for the daemon side)",
            snapshots.len()
        );
    }
    println!(
        "pushed {} profile(s); {} shed response(s) absorbed, {} transport error(s), {} failed",
        total.pushed, total.sheds, total.transport_errors, total.failed
    );
    if total.pushed == 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `leakprofd racecheck --dir PATH`: one-shot happens-before race
/// detection over a source tree. Compiles every `.go` file in race
/// mode, runs every zero-arg entry point (or just `--entry NAME`) under
/// the vector-clock engine, and reports the findings `go run -race`
/// style (or as JSON with `--json`). Exit 0 when race-free, 1 when
/// races were found, 2 on compile/IO errors (a `.go` file that is not
/// valid UTF-8 among them).
fn racecheck_cmd(flags: &[(String, String)]) -> ExitCode {
    let Some(dir) = flag(flags, "dir") else {
        eprintln!("error: racecheck requires --dir PATH");
        return ExitCode::from(2);
    };
    let dir = std::path::PathBuf::from(dir);
    let files = match collector::source_tree::read_go_tree(&dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("error: no .go files under {}", dir.display());
        return ExitCode::from(2);
    }
    let sources = match collector::source_tree::into_sources(files) {
        Ok(s) => s,
        Err(rel) => {
            eprintln!("error: {rel}: not valid UTF-8");
            return ExitCode::from(2);
        }
    };
    let cfg = racecheck::RunConfig {
        seed: parsed(flags, "seed", 13u64),
        ticks: parsed(flags, "ticks", 5_000u64),
        ..racecheck::RunConfig::default()
    };
    let entries = match flag(flags, "entry") {
        Some(entry) => vec![entry.to_string()],
        None => match racecheck::discover_entries(&sources) {
            Ok(entries) => entries,
            Err(diags) => {
                for d in &diags {
                    eprintln!("error: {d}");
                }
                return ExitCode::from(2);
            }
        },
    };
    if entries.is_empty() {
        eprintln!(
            "error: no zero-argument entry points under {}",
            dir.display()
        );
        return ExitCode::from(2);
    }
    let report = match racecheck::check_entries(&sources, &entries, &cfg) {
        Ok(r) => r,
        Err(diags) => {
            for d in &diags {
                eprintln!("error: {d}");
            }
            return ExitCode::from(2);
        }
    };
    if flags.iter().any(|(k, _)| k == "json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
    } else {
        eprintln!(
            "leakprofd: racecheck: {} file(s), {} entry point(s), {} access event(s)",
            sources.len(),
            entries.len(),
            report.events_analyzed
        );
        print!("{}", report.render());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
