//! `leakprofd` — the continuous profile-collection and streaming-analysis
//! daemon, plus self-contained demo modes.
//!
//! Run `leakprofd` without arguments for every subcommand and its flags.
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

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use collector::{
    backtest_store, fold_order, fold_snapshot, merge_state_dirs, render_table, run_chaos,
    serve_daemon_endpoints_with, serve_fleet_endpoints, write_merged, write_report, AdaptiveConfig,
    ApiSnapshot, BacktestConfig, ChaosConfig, ChaosPlanConfig, Daemon, DaemonConfig, DemoFleet,
    FleetAggregator, FleetConfig, FleetHealth, MergeConfig, ProfileHub, PushClient, PushConfig,
    PushError, RaceTierConfig, ReportLedger, ScrapeConfig, ScrapeTarget, ShardSpec, SnapshotStore,
    StaticTierConfig, WatermarkTrigger,
};
use leaklab_cli::{parse_command, switch, value, Args, Flag, Spec};
use leakprof::FleetAccumulator;
use shardmap::ShardMap;

const THRESHOLD: Flag =
    value::<u64>("threshold", "T", "criterion-1 blocked-goroutine count").default("40");
const TOP: Flag = value::<usize>("top", "N", "suspects to rank").default("10");
const INSTANCES: Flag = value::<usize>("instances", "N", "demo fleet size").default("100");
const DAYS: Flag = value::<u32>("days", "D", "days of demo traffic").default("3");
const SEED: Flag = value::<u64>("seed", "S", "demo fleet and jitter seed").default("7");
const PORT: Flag = value::<u16>("port", "P", "endpoint port (0 picks one)").default("0");
const SOURCE_DIR: Flag =
    value::<PathBuf>("source-dir", "PATH", "criterion-2 filter over this tree");
const ADDRS: Flag = value::<SocketAddr>("addr", "HOST:PORT", "daemon or fleet tier")
    .repeated()
    .required();
const OUT: Flag = value::<String>("out", "PATH", "write here instead of stdout");

const SERVE: Spec = Spec {
    synopsis: "leakprofd serve",
    about: "Scrape a demo fleet every cycle; serve /metrics, /status, /health, /trace, /flame.",
    flags: &[
        INSTANCES,
        DAYS,
        SEED,
        PORT,
        value::<u64>("cycles", "N", "cycles to run (0 runs until killed)").default("0"),
        value::<u64>("interval-ms", "MS", "pause between cycles").default("1000"),
        THRESHOLD,
        TOP,
        value::<PathBuf>("state-dir", "PATH", "snapshot, WAL, ledger and telemetry"),
        value::<u64>("snapshot-every", "N", "cycles between snapshots").default("5"),
        SOURCE_DIR,
        value::<PathBuf>("race-dir", "PATH", "race-check this mini-Go tree"),
        value::<bool>("keepalive", "BOOL", "reuse scrape connections").default("true"),
        switch("tail-sample", "span detail only for slow or flagged cycles"),
        switch("adaptive", "trend-driven scrape interval"),
        value::<u64>("interval-min-ms", "MS", "adaptive lower bound").default("250"),
        value::<u64>("interval-max-ms", "MS", "adaptive upper bound").default("8000"),
        value::<String>("shard", "I/N", "scrape only seat I of N"),
        value::<PathBuf>("shard-map", "PATH", "shard map file for --shard"),
        switch("push", "accept POST /api/push"),
        value::<usize>("push-queue", "N", "push admission queue").default("4096"),
        value::<usize>("push-shards", "N", "push absorber shards").default("4"),
        value::<usize>("accept-pending", "N", "queued connections before 503").default("1024"),
        value::<usize>("http-workers", "N", "endpoint worker threads").default("2"),
    ],
};

const SCRAPE_ONCE: Spec = Spec {
    synopsis: "leakprofd scrape-once",
    about: "One scrape cycle against --addr (or a fresh demo fleet); print the ranking.",
    flags: &[
        value::<SocketAddr>("addr", "HOST:PORT", "hub serving /instances"),
        INSTANCES,
        DAYS,
        SEED,
        THRESHOLD,
        TOP,
        value::<usize>("workers", "N", "scrape workers (0 sizes to the fleet)").default("0"),
        value::<bool>("keepalive", "BOOL", "reuse scrape connections").default("false"),
        SOURCE_DIR,
    ],
};

const STATUS: Spec = Spec {
    synopsis: "leakprofd status",
    about: "Per-shard rows and the merged ranking of serving daemons.",
    flags: &[ADDRS, THRESHOLD, TOP],
};

const TOP_CMD: Spec = Spec {
    synopsis: "leakprofd top",
    about: "Live dashboard of one daemon, or of several shards merged.",
    flags: &[
        ADDRS,
        value::<u64>("refresh-ms", "MS", "pause between frames").default("1000"),
        value::<u64>("frames", "N", "frames to draw (0 runs until killed)").default("0"),
        THRESHOLD,
        TOP,
    ],
};

const TRACE: Spec = Spec {
    synopsis: "leakprofd trace",
    about: "Export /trace as Chrome trace events; several --addr stitch one timeline.",
    flags: &[ADDRS, OUT],
};

const FLAME: Spec = Spec {
    synopsis: "leakprofd flame",
    about: "Fetch a flamegraph: SVG/HTML, folded stacks, differential or self.",
    flags: &[
        value::<SocketAddr>("addr", "HOST:PORT", "daemon or fleet tier").required(),
        OUT,
        switch("txt", "folded stacks instead of SVG/HTML"),
        value::<u64>("from", "N", "differential window start (needs --to)"),
        value::<u64>("to", "N", "differential window end (needs --from)"),
        switch("self", "the daemon's own worker flame"),
    ],
};

const RECOVER: Spec = Spec {
    synopsis: "leakprofd recover",
    about: "Replay a state dir offline: the ranking and ledger a restart resumes with.",
    flags: &[
        value::<String>("state-dir", "PATH", "daemon state dir").required(),
        THRESHOLD,
        TOP,
        SOURCE_DIR,
    ],
};

const BACKTEST: Spec = Spec {
    synopsis: "leakprofd backtest",
    about: "Weekly per-site trend tables from a state dir's telemetry store.",
    flags: &[
        value::<String>("state-dir", "PATH", "daemon state dir").required(),
        value::<PathBuf>("out", "DIR", "also write report.txt and CSVs here"),
        value::<u64>("week-len", "N", "cycles per week").default("7"),
        value::<usize>("top", "N", "sites per table (0 = all)").default("0"),
    ],
};

const MERGE: Spec = Spec {
    synopsis: "leakprofd merge",
    about: "Fold shard state dirs into one fleet-wide ranking.",
    flags: &[
        value::<PathBuf>("state-dir", "PATH", "shard state dir")
            .repeated()
            .required(),
        value::<PathBuf>("out", "DIR", "write the merged state dir here"),
        THRESHOLD,
        TOP,
    ],
};

const FLEET: Spec = Spec {
    synopsis: "leakprofd fleet",
    about: "Live merge tier: poll shard daemons, serve the merged endpoints.",
    flags: &[
        value::<SocketAddr>("shard-addr", "HOST:PORT", "shard daemon")
            .repeated()
            .required(),
        PORT,
        value::<u64>("interval-ms", "MS", "pause between polls").default("1000"),
        value::<u64>("polls", "N", "polls to run (0 runs until killed)").default("0"),
        value::<u32>("shards", "N", "canonical N-seat map (0 = never rebalance)").default("0"),
        value::<PathBuf>("shard-map", "PATH", "shard map file instead of --shards"),
        value::<PathBuf>("out-map", "PATH", "write each new map version here"),
        THRESHOLD,
        TOP,
    ],
};

const CHAOS: Spec = Spec {
    synopsis: "leakprofd chaos",
    about: "Seeded faults and kill/restarts; exit 0 iff the crash-safety invariants hold.",
    flags: &[
        value::<usize>("instances", "N", "demo fleet size").default("8"),
        value::<u64>("cycles", "N", "cycles to run").default("12"),
        SEED,
        value::<u64>("restart-every", "N", "cycles between kills").default("4"),
        value::<PathBuf>("state-dir", "PATH", "state dir (default: under temp)"),
    ],
};

const PUSH: Spec = Spec {
    synopsis: "leakprofd push",
    about: "Poll a fleet's profiles and POST them to a daemon's /api/push.",
    flags: &[
        value::<SocketAddr>("addr", "HOST:PORT", "daemon serving /api/push").required(),
        value::<SocketAddr>("fleet-addr", "HOST:PORT", "hub serving /instances").required(),
        value::<usize>("pushers", "N", "pusher threads").default("4"),
        value::<u64>("rounds", "N", "poll rounds (0 runs until killed)").default("1"),
        value::<u64>("watermark", "N", "push at this many goroutines").default("1"),
        value::<u64>("heartbeat", "N", "push every N polls anyway (0 = never)").default("0"),
        value::<u64>("interval-ms", "MS", "pause between rounds").default("500"),
        SEED,
        value::<String>("trace-out", "PATH", "write the pushers' Chrome trace here"),
    ],
};

const RACECHECK: Spec = Spec {
    synopsis: "leakprofd racecheck",
    about: "Race-check a mini-Go tree; exit 0 race-free, 1 races found, 2 errors.",
    flags: &[
        value::<PathBuf>("dir", "PATH", "source tree").required(),
        value::<String>("entry", "NAME", "run only this entry point"),
        value::<u64>("seed", "S", "scheduler seed").default("13"),
        value::<u64>("ticks", "N", "virtual ticks per entry").default("5000"),
        switch("json", "findings as JSON"),
    ],
};

/// A subcommand: `Err` carries the message of an exit-2 failure.
type Run = fn(&Args) -> Result<ExitCode, String>;

const COMMANDS: &[(Spec, Run)] = &[
    (SERVE, serve),
    (SCRAPE_ONCE, scrape_once),
    (STATUS, status),
    (TOP_CMD, top),
    (TRACE, trace),
    (FLAME, flame_cmd),
    (RECOVER, recover),
    (BACKTEST, backtest),
    (MERGE, merge_cmd),
    (FLEET, fleet_cmd),
    (CHAOS, chaos),
    (PUSH, push_cmd),
    (RACECHECK, racecheck_cmd),
];

fn main() -> ExitCode {
    let (run, args) = parse_command("leakprofd", COMMANDS, std::env::args().skip(1));
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// The ranking every subcommand starts from: `--threshold` and `--top`,
/// criterion-2 filter off — a static tier turns it on when one is
/// configured.
fn ranker(args: &Args) -> leakprof::LeakProf {
    leakprof::LeakProf::new(leakprof::Config {
        threshold: args.get("threshold"),
        ast_filter: false,
        top_n: args.get("top"),
    })
}

/// The source tree a tier reads (`--source-dir` or `--race-dir`) and
/// the dir its cache lands in: the state dir when one is configured,
/// otherwise beside the sources (only `.go` files are scanned, so the
/// cache never shadows a source file).
fn tier_dirs(args: &Args, flag: &str, state_dir: Option<&Path>) -> Option<(PathBuf, PathBuf)> {
    let src: PathBuf = args.opt(flag)?;
    let dir = state_dir.unwrap_or(&src).to_path_buf();
    Some((src, dir))
}

/// The static-tier config when `--source-dir` is present.
fn static_tier_config(args: &Args, state_dir: Option<&Path>) -> Option<StaticTierConfig> {
    let (src, dir) = tier_dirs(args, "source-dir", state_dir)?;
    Some(StaticTierConfig::in_state_dir(src, &dir))
}

/// Parses `--shard I/N` (+ optional `--shard-map PATH`) into a
/// [`ShardSpec`]. Without `--shard-map` the canonical N-seat map is
/// used — every shard computing `ShardMap::new(N)` independently gets
/// the identical assignment, so no coordination is needed.
fn shard_spec(args: &Args) -> Result<Option<ShardSpec>, String> {
    let Some(spec) = args.opt::<String>("shard") else {
        return Ok(None);
    };
    let (index, of): (u32, u32) = spec
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
        .ok_or_else(|| format!("--shard must be I/N (e.g. 0/3), got {spec}"))?;
    let map = match args.opt::<PathBuf>("shard-map") {
        Some(path) => ShardMap::load(&path)
            .map_err(|e| format!("cannot load shard map {}: {e}", path.display()))?,
        None => ShardMap::new(of),
    };
    if map.total() != of {
        let seats = map.total();
        return Err(format!(
            "--shard {spec} does not match the {seats}-seat shard map"
        ));
    }
    if index >= of {
        return Err(format!(
            "--shard index {index} out of range for {of} shard(s)"
        ));
    }
    Ok(Some(ShardSpec { map, index }))
}

/// Builds and serves the demo fleet, writing its handler sources into
/// the static tier's source dir when one is configured.
fn build_demo(
    args: &Args,
    static_tier: Option<&StaticTierConfig>,
) -> Result<(DemoFleet, collector::HttpServer), String> {
    let instances: usize = args.get("instances");
    let seed: u64 = args.get("seed");
    let days: u32 = args.get("days");
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
    if let Some(tier) = static_tier {
        let dir = tier.source_dir.display();
        demo.write_sources(&tier.source_dir)
            .map_err(|e| format!("cannot write sources to {dir}: {e}"))?;
    }
    Ok((demo, server))
}

/// The instance ids a hub serves at `/instances`.
fn list_instances(addr: SocketAddr) -> Result<Vec<String>, String> {
    fetch(addr, "/instances")
        .and_then(|body| serde_json::from_str(&body).map_err(|e| format!("/instances: {e}")))
        .map_err(|e| format!("cannot list instances at {addr}: {e}"))
}

fn scrape_once(args: &Args) -> Result<ExitCode, String> {
    let static_tier = static_tier_config(args, None);
    let scrape = ScrapeConfig {
        workers: args.get("workers"),
        jitter_seed: args.get("seed"),
        keepalive: args.get("keepalive"),
        ..ScrapeConfig::default()
    };

    // Keep demo-fleet state (and its server) alive for the scrape.
    let _demo;
    let targets = match args.opt::<SocketAddr>("addr") {
        // Against an external hub: discover instances via /instances.
        Some(addr) => list_instances(addr)?
            .into_iter()
            .map(|id| ScrapeTarget {
                path: ProfileHub::profile_path(&id),
                instance: id,
                addr,
            })
            .collect(),
        None => {
            let (demo, server) = build_demo(args, static_tier.as_ref())?;
            let targets = demo.targets(server.addr());
            _demo = (demo, server);
            targets
        }
    };

    let config = DaemonConfig {
        scrape,
        static_tier,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(config, ranker(args), targets).map_err(|e| e.to_string())?;
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
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn serve(args: &Args) -> Result<ExitCode, String> {
    let cycles: u64 = args.get("cycles");
    let interval_ms: u64 = args.get("interval-ms");

    let state_dir: Option<PathBuf> = args.opt("state-dir");
    let static_tier = static_tier_config(args, state_dir.as_deref());
    let race_tier = tier_dirs(args, "race-dir", state_dir.as_deref())
        .map(|(src, dir)| RaceTierConfig::in_state_dir(src, &dir));
    let shard = shard_spec(args)?;

    let (mut demo, fleet_server) = build_demo(args, static_tier.as_ref())?;
    let targets = demo.targets(fleet_server.addr());
    // With --source-dir the daemon's static tier installs cached
    // verdicts and turns the filter on itself.
    let lp = ranker(args);

    let config = DaemonConfig {
        scrape: ScrapeConfig {
            jitter_seed: args.get("seed"),
            // Keep-alive on by default: the daemon re-scrapes the same
            // fleet every cycle, the textbook case for pooling.
            keepalive: args.get("keepalive"),
            ..ScrapeConfig::default()
        },
        state_dir,
        snapshot_every: args.get::<u64>("snapshot-every").max(1),
        trace: obs::TraceConfig {
            // Tail sampling keeps full span detail only for flagged or
            // slow cycles; stage histograms stay always-on either way.
            tail_sample: args.on("tail-sample"),
            ..obs::TraceConfig::default()
        },
        static_tier,
        race_tier,
        adaptive: if args.on("adaptive") {
            AdaptiveConfig::enabled(
                args.get("interval-min-ms"),
                args.get("interval-max-ms"),
                interval_ms,
            )
        } else {
            AdaptiveConfig::default()
        },
        shard,
        ingest: args.on("push").then(|| collector::IngestConfig {
            queue_capacity: args.get("push-queue"),
            shards: args.get("push-shards"),
            accept_pending: args.get("accept-pending"),
            jitter_seed: args.get("seed"),
            ..collector::IngestConfig::default()
        }),
        ..DaemonConfig::default()
    };
    let push_enabled = config.ingest.is_some();
    let daemon =
        Daemon::new(config, lp, targets).map_err(|e| format!("cannot open daemon state: {e}"))?;
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
    let endpoints = serve_daemon_endpoints_with(
        Arc::clone(&daemon),
        &format!("127.0.0.1:{}", args.get::<u16>("port")),
        args.get("http-workers"),
    )
    .map_err(|e| format!("cannot bind daemon endpoints: {e}"))?;
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
            return Ok(ExitCode::from(1));
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
        std::thread::sleep(Duration::from_millis(sleep_ms));
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
    Ok(ExitCode::SUCCESS)
}

fn status(args: &Args) -> Result<ExitCode, String> {
    let peeks: Vec<ShardPeek> = args.all("addr").into_iter().map(peek_shard).collect();
    print!("{}", render_overview(&peeks, &ranker(args)));
    Ok(ExitCode::SUCCESS)
}

/// GETs `path` from a serving daemon and returns the UTF-8 body.
fn fetch(addr: SocketAddr, path: &str) -> Result<String, String> {
    let body = collector::http_get(
        addr,
        path,
        Duration::from_millis(1000),
        Duration::from_millis(2000),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    String::from_utf8(body).map_err(|e| format!("{path}: not UTF-8: {e}"))
}

/// One polled daemon in the multi-address overview: its snapshot (the
/// merge input) or why it could not be reached, and its breaker
/// counters if it serves a daemon `/status`.
struct ShardPeek {
    addr: SocketAddr,
    snap: Result<ApiSnapshot, String>,
    breakers: Option<collector::BreakerSummary>,
}

/// Fetches one peer's `/api/snapshot` (and, best-effort, its `/status`
/// breaker counters — a fleet aggregator serves a different status
/// document, so this stays optional).
fn peek_shard(addr: SocketAddr) -> ShardPeek {
    let snap = fetch(addr, "/api/snapshot").and_then(|body| {
        serde_json::from_str::<ApiSnapshot>(&body).map_err(|e| format!("/api/snapshot: {e}"))
    });
    let breakers = snap
        .as_ref()
        .ok()
        .and_then(|_| fetch(addr, "/status").ok())
        .and_then(|body| serde_json::from_str::<collector::DaemonStatus>(&body).ok())
        .map(|s| s.breakers);
    ShardPeek {
        addr,
        snap,
        breakers,
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
        let shard = p.snap.as_ref().ok().and_then(|s| s.shard.as_ref());
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
            Ok(snap) => {
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
            Err(e) => {
                let _ = writeln!(
                    out,
                    "{:<8} {:<21} {:>6} {:>7} {:>8}  {:<16} stale ({})",
                    "?", p.addr, "-", "-", "-", "-", e
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
fn top(args: &Args) -> Result<ExitCode, String> {
    let addrs: Vec<SocketAddr> = args.all("addr");
    let frames: u64 = args.get("frames");
    let lp = ranker(args);
    let mut shown = 0u64;
    loop {
        let frame = if let [addr] = addrs[..] {
            let status: collector::DaemonStatus = fetch(addr, "/status").and_then(|body| {
                serde_json::from_str(&body).map_err(|e| format!("/status: {e}"))
            })?;
            // Health (trend verdicts + sparklines) is best-effort: absent
            // before the first cycle completes.
            let health: Option<FleetHealth> = fetch(addr, "/health")
                .ok()
                .and_then(|body| serde_json::from_str(&body).ok());
            render_top(addr, &status, health.as_ref())
        } else {
            let peeks: Vec<ShardPeek> = addrs.iter().copied().map(peek_shard).collect();
            let overview = render_overview(&peeks, &lp);
            format!("leakprofd top — {} shard(s)\n{overview}", addrs.len())
        };
        if shown > 0 {
            // Repaint in place so the dashboard refreshes rather than
            // scrolls.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        let _ = std::io::stdout().flush();
        shown += 1;
        if frames > 0 && shown >= frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.get("refresh-ms")));
    }
    Ok(ExitCode::SUCCESS)
}

/// One dashboard frame.
fn render_top(
    addr: SocketAddr,
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

/// One Chrome trace-event document: a single process keeps the flat
/// export, several are stitched into per-process lanes.
fn chrome(snapshots: &[obs::TraceSnapshot]) -> String {
    match snapshots {
        [one] => obs::to_chrome(one),
        many => obs::to_chrome_stitched(many),
    }
}

/// Exports serving daemons' `/trace` as Chrome trace-event JSON. One
/// `--addr` keeps the flat single-process export; repeating the flag
/// stitches every process's snapshot into one timeline with per-process
/// lanes and cross-process flow arrows (the distributed trace view).
fn trace(args: &Args) -> Result<ExitCode, String> {
    let mut snapshots: Vec<obs::TraceSnapshot> = Vec::new();
    for addr in args.all::<SocketAddr>("addr") {
        // A daemon's /trace is a raw TraceSnapshot; a fleet
        // aggregator's /trace is an already-stitched Chrome array, so
        // fall back to its /trace/self for the restitchable snapshot.
        let snap = fetch(addr, "/trace").and_then(|body| {
            if body.trim_start().starts_with('[') {
                fetch(addr, "/trace/self").and_then(|body| {
                    serde_json::from_str(&body).map_err(|e| format!("/trace/self: {e}"))
                })
            } else {
                serde_json::from_str(&body).map_err(|e| format!("/trace: {e}"))
            }
        });
        snapshots.push(snap.map_err(|e| format!("{addr}: {e}"))?);
    }
    let spans: usize = snapshots
        .iter()
        .flat_map(|s| s.cycles.iter())
        .map(|c| c.spans.len())
        .sum();
    let cycles: usize = snapshots.iter().map(|s| s.cycles.len()).sum();
    let chrome = chrome(&snapshots);
    match args.opt::<String>("out") {
        Some(path) => {
            std::fs::write(&path, &chrome).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "wrote {spans} span(s) across {cycles} cycle(s) from {} process(es) to {path} \
                 (open in chrome://tracing or Perfetto)",
                snapshots.len()
            );
        }
        None => println!("{chrome}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Fetches a flamegraph from a serving daemon or fleet aggregator:
/// HTML/SVG by default, collapsed folded-stack text with `--txt`;
/// `--from`/`--to` selects the differential view, `--self` the
/// daemon's own worker/stage self-time flame.
fn flame_cmd(args: &Args) -> Result<ExitCode, String> {
    let addr: SocketAddr = args.get("addr");
    let txt = args.on("txt");
    let (from, to) = (args.opt::<u64>("from"), args.opt::<u64>("to"));
    let path = if args.on("self") {
        if from.is_some() || to.is_some() {
            return Err("--self has no differential view (drop --from/--to)".into());
        }
        if txt {
            "/flame/self.txt"
        } else {
            "/flame/self"
        }
        .to_string()
    } else {
        let base = if txt { "/flame.txt" } else { "/flame" };
        match (from, to) {
            (None, None) => base.to_string(),
            (Some(from), Some(to)) => format!("{base}?from={from}&to={to}"),
            _ => return Err("--from and --to must be given together".into()),
        }
    };
    let body = fetch(addr, &path).map_err(|e| format!("{addr}: {e}"))?;
    match args.opt::<String>("out") {
        Some(out) => {
            std::fs::write(&out, &body).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "wrote {} from {addr}{path} to {out}{}",
                if txt { "folded stacks" } else { "flamegraph" },
                if txt { "" } else { " (open in a browser)" },
            );
        }
        None => print!("{body}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Offline inspection of a state directory: what a restarting daemon
/// would reconstruct, and the ranking it would resume with.
fn recover(args: &Args) -> Result<ExitCode, String> {
    let dir: String = args.get("state-dir");
    let store = SnapshotStore::open(&dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
    let recovery = store
        .recover()
        .map_err(|e| format!("cannot recover {dir}: {e}"))?;
    if recovery.is_empty() {
        println!("no durable state in {dir}: a daemon would start fresh");
        return Ok(ExitCode::SUCCESS);
    }
    match &recovery.snapshot {
        Some(snap) => println!(
            "snapshot: cycle {} ({} profiles ingested)",
            snap.cycle, snap.health.scrapes_ok
        ),
        None => println!("no snapshot committed yet"),
    }
    let (acc, _) = recovery
        .replay()
        .map_err(|e| format!("snapshot does not restore: {e}"))?;
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

    let mut lp = ranker(args);
    // Sources are not part of durable state, but --source-dir plus the
    // persisted verdict cache recovers the filter too — warm caches
    // answer without parsing anything.
    if let Some(tier_config) = static_tier_config(args, Some(Path::new(&dir))) {
        match collector::StaticTier::open(tier_config).and_then(|mut t| t.sync()) {
            Ok(verdicts) => {
                lp.install_verdicts(verdicts);
                lp.set_ast_filter(true);
            }
            Err(e) => eprintln!("warning: static tier unavailable: {e}"),
        }
    }
    print!("{}", lp.report_from_accumulator(&acc).render());

    let ledger_path = Path::new(&dir).join("ledger.json");
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
    Ok(ExitCode::SUCCESS)
}

/// Offline replay of fleet telemetry into weekly per-site trend tables
/// — the same classification path as the live `/health`.
fn backtest(args: &Args) -> Result<ExitCode, String> {
    let config = BacktestConfig {
        week_len: args.get::<u64>("week-len").max(1),
        top: args.get("top"),
        ..BacktestConfig::default()
    };
    let dir: String = args.get("state-dir");
    // The store a serving daemon persisted under --state-dir.
    let ts = timeseries::TsStore::open(Path::new(&dir).join("ts"), Default::default())
        .map_err(|e| format!("cannot open telemetry store under {dir}: {e}"))?;
    let report = backtest_store(&ts, &config);
    print!("{}", render_table(&report));
    if let Some(out) = args.opt::<PathBuf>("out") {
        write_report(&report, &out)
            .map_err(|e| format!("cannot write report to {}: {e}", out.display()))?;
        println!(
            "wrote report.txt, weekly_rms.csv, verdicts.csv to {}",
            out.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `leakprofd merge`: fold N shard state dirs (snapshot + WAL replay
/// each, exactly like a restarting daemon) into one fleet-wide ranking
/// — byte-identical to a single whole-fleet daemon's. `--out DIR`
/// persists the fold as a regular state dir.
fn merge_cmd(args: &Args) -> Result<ExitCode, String> {
    let config = MergeConfig::default();
    let mut merged = merge_state_dirs(&args.all::<PathBuf>("state-dir"), &config)
        .map_err(|e| format!("merge failed: {e}"))?;
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
    let lp = ranker(args);
    print!("{}", lp.report_from_accumulator(&merged.acc).render());
    println!("{}", merged.ledger.summary());
    if let Some(out) = args.opt::<PathBuf>("out") {
        write_merged(&out, &mut merged, &config)
            .map_err(|e| format!("cannot write merged state to {}: {e}", out.display()))?;
        println!(
            "wrote merged state dir to {} (snapshot + ledger.json + ts)",
            out.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `leakprofd fleet`: the long-running live merge tier. Polls each
/// `--shard-addr`'s `/api/snapshot` behind circuit breakers, serves
/// the merged endpoints, and — with `--shard-map`/`--out-map` — writes
/// every rebalanced map version out for shard daemons to pick up.
fn fleet_cmd(args: &Args) -> Result<ExitCode, String> {
    let addrs: Vec<SocketAddr> = args.all("shard-addr");
    let map = match args.opt::<PathBuf>("shard-map") {
        Some(path) => Some(
            ShardMap::load(&path)
                .map_err(|e| format!("cannot load shard map {}: {e}", path.display()))?,
        ),
        // --shards N is the canonical N-seat map — the same one
        // `serve --shard I/N` uses without a map file.
        None => {
            let n: u32 = args.get("shards");
            (n > 0).then(|| ShardMap::new(n))
        }
    };
    let fleet = Arc::new(Mutex::new(FleetAggregator::new(
        FleetConfig {
            map,
            ..FleetConfig::new(addrs.clone())
        },
        ranker(args),
    )));
    let port: u16 = args.get("port");
    let mut server = serve_fleet_endpoints(Arc::clone(&fleet), &format!("127.0.0.1:{port}"))
        .map_err(|e| format!("cannot bind fleet endpoints: {e}"))?;
    println!(
        "leakprofd: fleet tier over {} shard(s), serving merged /metrics, /status, /health, \
         /api/snapshot on http://{}",
        addrs.len(),
        server.addr()
    );
    let polls: u64 = args.get("polls");
    let interval_ms: u64 = args.get("interval-ms");
    let out_map: Option<PathBuf> = args.opt("out-map");
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
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    let f = fleet.lock().expect("fleet poisoned");
    if let Some(report) = f.last_report() {
        print!("{}", report.render());
    }
    print!("{}", f.metrics_text());
    drop(f);
    server.shutdown();
    Ok(ExitCode::SUCCESS)
}

/// Runs the deterministic chaos harness against a demo fleet and
/// reports whether the crash-safety invariants held.
fn chaos(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.get("seed");
    let state_dir = args
        .opt::<PathBuf>("state-dir")
        .unwrap_or_else(|| std::env::temp_dir().join(format!("leakprofd-chaos-{seed}")));
    let mut config = ChaosConfig::quick(seed, state_dir.clone());
    config.instances = args.get("instances");
    config.cycles = args.get("cycles");
    config.plan = ChaosPlanConfig {
        restart_every: args.get("restart-every"),
        ..ChaosPlanConfig::default()
    };
    println!(
        "leakprofd: chaos over {} instances, {} cycles, seed {seed}, state in {}",
        config.instances,
        config.cycles,
        state_dir.display()
    );
    let outcome = run_chaos(&config, |line| println!("{line}"))
        .map_err(|e| format!("chaos run failed: {e}"))?;
    println!("{}", outcome.render());
    Ok(if outcome.invariants_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `leakprofd push`: the push client. Discovers instances at
/// `--fleet-addr`, then `--pushers` worker threads each poll their
/// slice of the fleet's profiles and push them to `--addr`'s
/// `/api/push` when the blocked count crosses `--watermark` (or every
/// `--heartbeat` polls), retrying shed pushes with capped exponential
/// backoff honoring `Retry-After`.
fn push_cmd(args: &Args) -> Result<ExitCode, String> {
    let daemon_addr: SocketAddr = args.get("addr");
    let fleet_addr: SocketAddr = args.get("fleet-addr");
    let ids = list_instances(fleet_addr)?;
    if ids.is_empty() {
        eprintln!("error: {fleet_addr} serves no instances");
        return Ok(ExitCode::from(1));
    }
    let pushers: usize = args.get::<usize>("pushers").max(1).min(ids.len());
    let rounds: u64 = args.get("rounds");
    let watermark: u64 = args.get("watermark");
    let heartbeat: u64 = args.get("heartbeat");
    let interval_ms: u64 = args.get("interval-ms");
    let seed: u64 = args.get("seed");
    let trace_out: Option<String> = args.opt("trace-out");
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
                        // Other errors mean shed budgets exhausted or
                        // transport down: drop this round's profile, the
                        // next round pushes a fresher one anyway.
                        if let Err(e @ PushError::Rejected { .. }) = client.push(&profile) {
                            eprintln!("leakprofd: push: {id}: {e}");
                        }
                    }
                    if rounds > 0 && round >= rounds {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(interval_ms));
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
        std::fs::write(path, chrome(&snapshots))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
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
    Ok(if total.pushed == 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `leakprofd racecheck --dir PATH`: one-shot happens-before race
/// detection over a source tree. Compiles every `.go` file in race
/// mode, runs every zero-arg entry point (or just `--entry NAME`) under
/// the vector-clock engine, and reports the findings `go run -race`
/// style (or as JSON with `--json`). Exit 0 when race-free, 1 when
/// races were found, 2 on compile/IO errors (a `.go` file that is not
/// valid UTF-8 among them).
fn racecheck_cmd(args: &Args) -> Result<ExitCode, String> {
    let dir: PathBuf = args.get("dir");
    let files = collector::source_tree::read_go_tree(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    if files.is_empty() {
        return Err(format!("no .go files under {}", dir.display()));
    }
    let sources = collector::source_tree::into_sources(files)
        .map_err(|rel| format!("{rel}: not valid UTF-8"))?;
    let cfg = racecheck::RunConfig {
        seed: args.get("seed"),
        ticks: args.get("ticks"),
        ..racecheck::RunConfig::default()
    };
    let entries = match args.opt::<String>("entry") {
        Some(entry) => vec![entry],
        None => racecheck::discover_entries(&sources).map_err(|d| errors(&d))?,
    };
    if entries.is_empty() {
        let dir = dir.display();
        return Err(format!("no zero-argument entry points under {dir}"));
    }
    let report = racecheck::check_entries(&sources, &entries, &cfg).map_err(|d| errors(&d))?;
    if args.on("json") {
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
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Several diagnostics as one exit-2 message, one `error:` line each.
fn errors(diags: &[impl std::fmt::Display]) -> String {
    let lines: Vec<String> = diags.iter().map(ToString::to_string).collect();
    lines.join("\nerror: ")
}
