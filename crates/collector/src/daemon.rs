//! The `leakprofd` daemon core: scrape cycles feeding a streaming
//! LeakProf accumulator, with health counters and its own `/metrics` +
//! `/status` endpoints.
//!
//! With a `state_dir` configured the daemon is **crash-safe**: every
//! cycle's profiles hit a write-ahead log before ingestion, the
//! accumulator is checkpointed every `snapshot_every` cycles, and
//! startup recovers snapshot + WAL to the exact pre-crash analysis state
//! (see [`crate::snapshot`]). Scraping runs behind per-target circuit
//! breakers ([`crate::breaker`]) and reporting behind a persistent
//! cool-down ledger ([`crate::ledger`]).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use leakprof::series as sid;
use leakprof::{FleetAccumulator, LeakProf, Report};
use serde::{Deserialize, Serialize};
use timeseries::{StoreConfig, TrendConfig, TsStore};

use obs::{StageSummary, TraceConfig, TraceSnapshot, Tracer, WorkerBoard};

use crate::adaptive::{AdaptiveConfig, AdaptiveController, AdaptiveStatus, Direction};
use crate::breaker::{BreakerConfig, BreakerSet, BreakerSummary};
use crate::endpoints::ProfileHub;
use crate::health::{classify_sites, FleetHealth};
use crate::http::{HttpServer, Request, Response, ServerOptions};
use crate::ingest::{dedupe_newest_wins, AbsorbedProfile, IngestConfig, IngestSummary, IngestTier};
use crate::ledger::{CycleOutcome, LedgerConfig, LedgerSummary, ReportLedger};
use crate::race_tier::{RaceTier, RaceTierConfig, RaceTierStats};
use crate::scrape::{CycleReport, KeepaliveSummary, ScrapeConfig, ScrapeTarget, Scraper};
use crate::shard::{claim_state_dir, ApiSnapshot, ShardSpec, API_SNAPSHOT_VERSION};
use crate::snapshot::{DaemonSnapshot, SnapshotStore, WalEntry, DAEMON_SNAPSHOT_VERSION};
use crate::static_tier::{StaticTier, StaticTierConfig, StaticTierStats};
use crate::stats::{HealthCounters, PromText};
use shardmap::ShardIdentity;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Scraper tuning.
    pub scrape: ScrapeConfig,
    /// Directory for durable state (snapshot + WAL + ledger). `None`
    /// runs fully in-memory, as before.
    pub state_dir: Option<std::path::PathBuf>,
    /// Checkpoint the accumulator every this many cycles (bounding both
    /// WAL growth and replay work after a crash).
    pub snapshot_every: u64,
    /// Per-target circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Report cool-down tuning.
    pub ledger: LedgerConfig,
    /// Static analysis tier (criterion-2 verdict cache over a source
    /// tree). `None` leaves the AST filter off, as before.
    pub static_tier: Option<StaticTierConfig>,
    /// Race detection tier (happens-before suspects over a source
    /// tree, cached by tree fingerprint). `None` disables race
    /// detection, as before.
    pub race_tier: Option<RaceTierConfig>,
    /// Cycle tracing (span ring capacity, retained cycles, on/off).
    pub trace: TraceConfig,
    /// Structured event log (ring capacity, retained entries, on/off).
    /// Replaces ad-hoc stderr prints; served at `GET /logs`.
    pub events: obs::EventConfig,
    /// Multi-resolution telemetry store layout. Persisted under
    /// `<state_dir>/ts` when a state dir is configured, else in-memory.
    pub ts: StoreConfig,
    /// Fleet telemetry recording + trend classification on/off. Off
    /// skips [`observe_fleet`](Daemon) entirely — `/health` stays
    /// empty and the adaptive controller never observes a cycle; the
    /// `ts_ingest` bench uses this to price the telemetry path.
    pub telemetry: bool,
    /// Trend/anomaly detection tuning for `/health` verdicts.
    pub trend: TrendConfig,
    /// Adaptive scrape-interval controller tuning (disabled by
    /// default; the serve loop then sleeps a fixed interval).
    pub adaptive: AdaptiveConfig,
    /// Shard assignment: scrape only the slice of the fleet a
    /// [`shardmap::ShardMap`] assigns this daemon, and tag the state
    /// dir with the shard identity. `None` scrapes the whole fleet.
    pub shard: Option<ShardSpec>,
    /// Push-mode ingestion (`POST /api/push`): bounded queue, admission
    /// control, and shard absorbers. `None` runs pull-only, as before.
    pub ingest: Option<IngestConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            scrape: ScrapeConfig::default(),
            state_dir: None,
            snapshot_every: 5,
            breaker: BreakerConfig::default(),
            ledger: LedgerConfig::default(),
            static_tier: None,
            race_tier: None,
            trace: TraceConfig::default(),
            events: obs::EventConfig::default(),
            ts: StoreConfig::default(),
            telemetry: true,
            trend: TrendConfig::default(),
            adaptive: AdaptiveConfig::default(),
            shard: None,
            ingest: None,
        }
    }
}

/// Background deallocator for spent per-cycle buffers. Dropping tens
/// of thousands of parsed profiles is real allocator work — around
/// 100ms for a 10K-instance cycle — that would otherwise be charged to
/// the cycle that already finished consuming them. The daemon hands
/// the buffers over and moves on; the frees overlap the inter-cycle
/// idle. If the thread cannot start, `retire` degrades to an inline
/// drop.
struct Reaper {
    tx: Option<std::sync::mpsc::Sender<Vec<AbsorbedProfile>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reaper {
    fn start() -> Reaper {
        let (tx, rx) = std::sync::mpsc::channel::<Vec<AbsorbedProfile>>();
        match std::thread::Builder::new()
            .name("leakprofd-reaper".into())
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    // Wait out the tail of the cycle that handed this
                    // batch over: on a saturated box the frees would
                    // otherwise compete with the cycle's own last
                    // milliseconds. Anything queued behind it is
                    // already stale — drain without pausing again.
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    drop(batch);
                    while rx.try_recv().is_ok() {}
                }
            }) {
            Ok(handle) => Reaper {
                tx: Some(tx),
                handle: Some(handle),
            },
            Err(_) => Reaper {
                tx: None,
                handle: None,
            },
        }
    }

    /// Queues `batch` for off-thread deallocation (inline if the reaper
    /// thread is gone).
    fn retire(&self, batch: Vec<AbsorbedProfile>) {
        if batch.is_empty() {
            return;
        }
        if let Some(tx) = &self.tx {
            // A failed send returns the batch and it drops inline —
            // correctness unaffected, only cycle latency.
            let _ = tx.send(batch);
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One ranked site in a status document: a compact projection of
/// [`leakprof::SiteStats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopSite {
    /// Rendered blocking operation, e.g. `send at pay/handler.go:10`.
    pub op: String,
    /// Fleet-wide RMS impact.
    pub rms: f64,
    /// Total blocked goroutines across instances.
    pub total: u64,
    /// Largest single-instance count.
    pub max_instance: u64,
}

/// Projects a report's suspects into [`TopSite`] rows, in rank order.
pub fn top_sites(report: &Report) -> Vec<TopSite> {
    report
        .suspects
        .iter()
        .map(|s| TopSite {
            op: s.stats.op.to_string(),
            rms: s.stats.rms,
            total: s.stats.total,
            max_instance: s.stats.max_instance,
        })
        .collect()
}

/// A machine-readable status snapshot (served at `/status` and printed
/// by `leakprofd status`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Completed scrape cycles.
    pub cycles: u64,
    /// Registered scrape targets.
    pub targets: usize,
    /// Profiles ingested into the accumulator over the daemon lifetime.
    pub profiles_ingested: usize,
    /// All-time scrape success rate in `[0,1]`.
    pub success_rate: f64,
    /// All-time p50 scrape latency (µs).
    pub p50_us: u64,
    /// All-time p99 scrape latency (µs).
    pub p99_us: u64,
    /// Current ranked top sites.
    pub top: Vec<TopSite>,
    /// Cycle the daemon recovered to at startup (0 for a fresh start).
    pub recovered_cycle: u64,
    /// Circuit-breaker state across targets.
    pub breakers: BreakerSummary,
    /// Report cool-down ledger counts.
    pub ledger: LedgerSummary,
    /// Static-tier cache counters (`None` when the tier is disabled).
    pub static_tier: Option<StaticTierStats>,
    /// Race-tier cache counters (`None` when the tier is disabled).
    pub race_tier: Option<RaceTierStats>,
    /// Per-stage latency summaries from the cycle tracer.
    pub stages: Vec<StageSummary>,
    /// Spans recorded into the trace ring over the daemon lifetime.
    pub spans_recorded: u64,
    /// Spans dropped because the trace ring was full.
    pub spans_dropped: u64,
    /// Scraper keep-alive pool counters.
    pub keepalive: KeepaliveSummary,
    /// Adaptive scrape-interval controller state.
    pub adaptive: AdaptiveStatus,
    /// Series tracked by the telemetry store.
    pub ts_series: usize,
    /// Shard identity (`None` for an unsharded whole-fleet daemon).
    pub shard: Option<ShardIdentity>,
    /// Push-ingest tier counters (`None` when push mode is disabled).
    pub ingest: Option<IngestSummary>,
}

/// The collection daemon: owns the scraper, the streaming analysis
/// state, and the durability machinery.
pub struct Daemon {
    lp: LeakProf,
    acc: FleetAccumulator,
    scraper: Scraper,
    targets: Vec<ScrapeTarget>,
    health: HealthCounters,
    last_report: Option<Report>,
    breakers: BreakerSet,
    ledger: ReportLedger,
    store: Option<SnapshotStore>,
    snapshot_every: u64,
    recovered_cycle: u64,
    last_outcome: Option<CycleOutcome>,
    static_tier: Option<StaticTier>,
    race_tier: Option<RaceTier>,
    tracer: Tracer,
    events: obs::EventLog,
    board: WorkerBoard,
    ts: TsStore,
    telemetry: bool,
    trend: TrendConfig,
    controller: AdaptiveController,
    last_health: Option<FleetHealth>,
    shard: Option<ShardIdentity>,
    ingest: Option<Arc<IngestTier>>,
    last_shed_total: u64,
    reaper: Reaper,
}

impl Daemon {
    /// Creates a daemon scraping `targets` and analyzing with `lp`. With
    /// a `state_dir` configured, recovers any snapshot + WAL left by a
    /// previous run — the accumulator, health counters, and report
    /// ledger all resume exactly where the last process stopped.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the state directory cannot be opened, or
    /// if durable state exists but is unreadable
    /// (mid-file corruption, unsupported version).
    pub fn new(
        config: DaemonConfig,
        mut lp: LeakProf,
        targets: Vec<ScrapeTarget>,
    ) -> std::io::Result<Daemon> {
        // Shard filtering first: everything downstream (scraping, the
        // accumulator, the state dir) only ever sees this slice.
        let shard = config.shard.as_ref().map(ShardSpec::identity);
        let targets = match &config.shard {
            Some(spec) => spec.filter_targets(targets),
            None => targets,
        };
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir)?;
            claim_state_dir(dir, shard.as_ref())?;
        }
        let tracer = Tracer::new(&config.trace);
        let service = match &shard {
            Some(id) => format!("leakprofd shard {}/{}", id.shard, id.of),
            None => "leakprofd".to_string(),
        };
        tracer.set_service(&service, env!("CARGO_PKG_VERSION"));
        let events = obs::EventLog::new(config.events.clone());
        let board = WorkerBoard::new();
        let mut acc = FleetAccumulator::new();
        let mut health = HealthCounters::default();
        let mut recovered_cycle = 0;
        let (store, mut ledger) = match &config.state_dir {
            Some(dir) => {
                let mut store = SnapshotStore::open(dir)?;
                store.set_tracer(tracer.clone());
                let recovery = store.recover()?;
                if let Some(e) = &recovery.dropped_trailing {
                    events.warn(
                        "daemon",
                        format!(
                            "wal {}: discarded torn trailing entry (crash mid-append?): {e}",
                            store.wal_path().display()
                        ),
                    );
                }
                if let Some(snap) = &recovery.snapshot {
                    acc = FleetAccumulator::from_snapshot(&snap.acc)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                    health = snap.health.clone();
                }
                for entry in &recovery.wal {
                    for p in &entry.profiles {
                        acc.ingest(p);
                    }
                    health.absorb(&entry.stats);
                }
                recovered_cycle = recovery.last_cycle();
                let ledger = ReportLedger::open(dir.join("ledger.json"), config.ledger.clone())?;
                (Some(store), ledger)
            }
            None => (None, ReportLedger::new(config.ledger.clone())),
        };
        ledger.set_tracer(tracer.clone());
        let static_tier = match config.static_tier {
            Some(tier_config) => {
                let mut tier = StaticTier::open(tier_config)?;
                tier.set_tracer(tracer.clone());
                // First sync: parses exactly the files the persisted
                // cache does not already cover at their current bytes.
                lp.install_verdicts(tier.sync()?);
                lp.set_ast_filter(true);
                Some(tier)
            }
            None => None,
        };
        let race_tier = match config.race_tier {
            Some(tier_config) => Some(RaceTier::open(tier_config)?),
            None => None,
        };
        // The telemetry store shares the state dir (subdirectory `ts`)
        // and has its own WAL, so its recovery is independent of the
        // accumulator's: a crash loses at most the in-flight batch.
        let ts = match &config.state_dir {
            Some(dir) => TsStore::open(dir.join("ts"), config.ts.clone())?,
            None => TsStore::in_memory(config.ts.clone()),
        };
        let mut scraper = Scraper::new(config.scrape);
        scraper.set_tracer(tracer.clone());
        scraper.set_worker_board(board.clone());
        scraper.set_events(events.clone());
        let ingest = config.ingest.map(|c| {
            let mut tier = IngestTier::start(c);
            tier.set_events(events.clone());
            Arc::new(tier)
        });
        Ok(Daemon {
            lp,
            acc,
            scraper,
            targets,
            health,
            last_report: None,
            breakers: BreakerSet::new(config.breaker),
            ledger,
            store,
            snapshot_every: config.snapshot_every.max(1),
            recovered_cycle,
            last_outcome: None,
            static_tier,
            race_tier,
            tracer,
            events,
            board,
            ts,
            telemetry: config.telemetry,
            trend: config.trend,
            controller: AdaptiveController::new(config.adaptive),
            last_health: None,
            shard,
            ingest,
            last_shed_total: 0,
            reaper: Reaper::start(),
        })
    }

    /// The push-ingest tier, when configured (`serve --push`). The
    /// `Arc` lets the HTTP layer answer `POST /api/push` without the
    /// daemon mutex — admission control must keep working while a cycle
    /// holds the daemon locked.
    pub fn ingest_tier(&self) -> Option<&Arc<IngestTier>> {
        self.ingest.as_ref()
    }

    /// This daemon's shard identity (`None` when unsharded).
    pub fn shard(&self) -> Option<&ShardIdentity> {
        self.shard.as_ref()
    }

    /// Builds the live merge-tier document served at `/api/snapshot`:
    /// the accumulator snapshot plus the ledger entries, tagged with
    /// the shard identity. Deterministic for a given analysis state, so
    /// a fleet aggregator folding these matches `leakprofd merge` over
    /// the same daemons' state dirs byte for byte.
    pub fn api_snapshot(&self) -> ApiSnapshot {
        ApiSnapshot {
            version: API_SNAPSHOT_VERSION,
            cycle: self.health.cycles,
            shard: self.shard.clone(),
            targets: self.targets.len(),
            acc: self.acc.snapshot(),
            ledger: self.ledger.entries().cloned().collect(),
        }
    }

    /// Registered scrape targets.
    pub fn targets(&self) -> &[ScrapeTarget] {
        &self.targets
    }

    /// Runs one scrape → WAL → ingest → rank → ledger cycle and returns
    /// the raw scrape report; the analysis result is available via
    /// [`Daemon::last_report`] and the paging decision via
    /// [`Daemon::last_outcome`]. Scrape failures degrade coverage (and
    /// feed the circuit breakers) but never abort the cycle; durability
    /// failures are logged and degrade to in-memory operation.
    pub fn run_cycle(&mut self) -> CycleReport {
        let cycle = self.health.cycles + 1;
        // Open the cycle's trace context: a remote context adopted from
        // the fleet poller (via `/api/snapshot`'s traceparent header)
        // parents this cycle under the fleet's trace; otherwise the
        // daemon mints its own root.
        let ctx = self.tracer.begin_cycle();
        // Root span for the whole cycle; made the ambient parent so
        // every stage span started on this thread nests under it.
        let mut root = self.tracer.start(obs::stage::CYCLE, "");
        root.attr("cycle", cycle);
        self.tracer.set_ambient(root.id());
        self.events.set_context(ctx.map(|c| c.trace_id), root.id());
        let report = self
            .scraper
            .scrape_cycle_gated(&self.targets, &mut self.breakers);
        // Push tier: drain the shard accumulators' coalesced profiles
        // and merge them with the pull tier's — newest per instance
        // wins — before anything durable happens, so WAL, ingest, and
        // telemetry all see one combined set.
        let mut shed_delta = 0u64;
        let profiles = match &self.ingest {
            Some(tier) => {
                let mut span = self.tracer.start(obs::stage::PUSH, "");
                let pushed = tier.drain_sorted();
                let s = tier.summary();
                span.attr("pushed", pushed.len());
                span.attr("push_total", s.push_total);
                span.attr("admitted_total", s.admitted_total);
                span.attr("shed_total", s.shed_total);
                span.attr("queue_depth", s.queue_depth);
                shed_delta = s.shed_total.saturating_sub(self.last_shed_total);
                self.last_shed_total = s.shed_total;
                if shed_delta > 0 {
                    self.events.warn(
                        "ingest",
                        format!("shed {shed_delta} pushes since last cycle (admission control)"),
                    );
                }
                dedupe_newest_wins(report.profiles.clone(), pushed)
            }
            None => report
                .profiles
                .iter()
                .cloned()
                .map(AbsorbedProfile::raw)
                .collect(),
        };
        // WAL before ingest: a crash from here on replays the cycle
        // instead of losing it.
        if let Some(store) = &self.store {
            let entry = WalEntry {
                cycle,
                profiles: profiles.iter().map(|a| a.profile.clone()).collect(),
                stats: report.stats.clone(),
            };
            if let Err(e) = store.append_wal(&entry) {
                self.events
                    .error("daemon", format!("wal append failed: {e}"));
            }
        }
        {
            let mut span = self.tracer.start(obs::stage::INGEST, "");
            span.attr("profiles", profiles.len());
            // Push-absorbed profiles arrive pre-analyzed (the absorbers
            // already walked their stacks off the cycle path) and cost
            // only the count merge here; pull-scraped profiles pay the
            // full `ingest`, which is the same analysis plus the same
            // merge — so mixed cycles land byte-identically to a
            // pull-only daemon over the same final profiles.
            let mut pre_analyzed = 0usize;
            for a in &profiles {
                match &a.sites {
                    Some(sites) => {
                        self.acc.merge_profile_sites(
                            &a.profile.instance,
                            sites,
                            a.profile.len() as u64,
                        );
                        pre_analyzed += 1;
                    }
                    None => self.acc.ingest(&a.profile),
                }
            }
            span.attr("pre_analyzed", pre_analyzed);
        }
        // Re-sync the verdict cache before ranking: changed files are
        // re-analyzed once, unchanged files cost a fingerprint check.
        // Sync failures degrade to last cycle's verdicts, never abort.
        if let Some(tier) = &mut self.static_tier {
            match tier.sync() {
                Ok(verdicts) => self.lp.install_verdicts(verdicts),
                Err(e) => self
                    .events
                    .error("daemon", format!("static-tier sync failed: {e}")),
            }
        }
        let mut analysis = {
            let mut span = self.tracer.start(obs::stage::ANALYZE, "");
            let analysis = self.lp.report_from_accumulator(&self.acc);
            span.attr("suspects", analysis.suspects.len());
            analysis
        };
        // Merge race suspects BEFORE the ledger applies: races ride the
        // same fingerprint → ranking → ledger → /health pipeline as
        // leaks. A warm tree costs one directory fingerprint; sync
        // failures degrade to a leak-only cycle, never abort.
        if let Some(tier) = &mut self.race_tier {
            match tier.sync() {
                Ok(races) => {
                    analysis.suspects.extend(
                        races
                            .into_iter()
                            .map(|stats| leakprof::report::Suspect { stats, owner: None }),
                    );
                    analysis.suspects.sort_by(|a, b| {
                        b.stats
                            .rms
                            .partial_cmp(&a.stats.rms)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.stats.op.to_string().cmp(&b.stats.op.to_string()))
                    });
                }
                Err(e) => self
                    .events
                    .error("daemon", format!("race-tier sync failed: {e}")),
            }
        }
        self.health.absorb(&report.stats);
        match self.ledger.apply(cycle, &analysis.suspects) {
            Ok(outcome) => self.last_outcome = Some(outcome),
            Err(e) => self
                .events
                .error("daemon", format!("ledger save failed: {e}")),
        }
        if self.telemetry {
            self.observe_fleet(cycle, &report, &profiles, &analysis);
        }
        let profile_count = profiles.len();
        // Everything that needed the profiles has run; free them off
        // the cycle path (see [`Reaper`]).
        self.reaper.retire(profiles);
        self.last_report = Some(analysis);
        if cycle.is_multiple_of(self.snapshot_every) {
            if let Err(e) = self.commit_snapshot() {
                self.events
                    .error("daemon", format!("snapshot commit failed: {e}"));
            }
            if let Err(e) = self.ts.flush() {
                self.events
                    .error("daemon", format!("telemetry flush failed: {e}"));
            }
        }
        // The root guard must record (drop) before the cycle is
        // finalized, or the cycle span would land in the next trace.
        root.attr("profiles", profile_count);
        self.tracer.set_ambient(0);
        drop(root);
        // Tail-sampling: a flagged cycle (scrape failures or admission
        // sheds) always keeps its full span tree; healthy cycles may be
        // reduced to a skeleton when tail sampling is enabled.
        let flagged = report.stats.failed > 0 || shed_delta > 0;
        self.tracer.finish_cycle_flagged(cycle, flagged);
        self.events.set_context(None, 0);
        report
    }

    /// Records this cycle's telemetry into the multi-resolution store
    /// (site RMS/total, per-instance blocked counts, stage p50s, cycle
    /// wall time), classifies every top site's trend, and feeds the
    /// adaptive interval controller. The time axis is the **cycle
    /// counter**, not wall clock, so replaying the persisted store
    /// offline (`leakprofd backtest`) reproduces these verdicts
    /// exactly. Store IO failures degrade to in-memory recording and
    /// never abort the cycle.
    fn observe_fleet(
        &mut self,
        cycle: u64,
        report: &CycleReport,
        profiles: &[AbsorbedProfile],
        analysis: &Report,
    ) {
        {
            let mut span = self.tracer.start(obs::stage::TS_APPEND, "");
            let mut owned: Vec<(String, f64)> = Vec::new();
            for s in &analysis.suspects {
                let fp = sid::site_fingerprint(&s.stats);
                owned.push((sid::site_rms_id(&fp), s.stats.rms));
                owned.push((sid::site_total_id(&fp), s.stats.total as f64));
                owned.push((
                    sid::site_blocked_id(&fp),
                    self.acc.raw_site_total(&s.stats.op) as f64,
                ));
            }
            for a in profiles {
                owned.push((
                    sid::instance_blocked_id(&a.profile.instance),
                    a.profile.goroutines.len() as f64,
                ));
            }
            for s in self.tracer.stage_summaries() {
                owned.push((sid::stage_p50_id(&s.stage), s.p50_us as f64));
            }
            owned.push((sid::CYCLE_WALL_MS_ID.to_string(), report.stats.wall_ms));
            let points: Vec<(&str, f64)> = owned.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            span.attr("points", points.len());
            if let Err(e) = self.ts.append(cycle, &points) {
                self.events
                    .error("daemon", format!("telemetry append failed: {e}"));
            }
        }
        let mut span = self.tracer.start(obs::stage::TREND, "");
        let fps: Vec<String> = analysis
            .suspects
            .iter()
            .map(|s| sid::site_fingerprint(&s.stats))
            .collect();
        let sites = classify_sites(&self.ts, &self.trend, &fps);
        let topk: BTreeSet<String> = fps.into_iter().collect();
        let regressing: Vec<String> = sites
            .iter()
            .filter(|s| s.class == "regressing")
            .map(|s| s.fingerprint.clone())
            .collect();
        // A downward step (improving) is good news; only non-improving
        // anomalies tighten the interval.
        let anomalies: Vec<String> = sites
            .iter()
            .filter(|s| s.anomaly && s.class != "improving")
            .map(|s| s.fingerprint.clone())
            .collect();
        let decision = self
            .controller
            .observe(cycle, &topk, &regressing, &anomalies);
        span.attr("sites", sites.len());
        span.attr("regressing", regressing.len());
        span.attr("interval_ms", decision.interval_ms);
        span.attr(
            "decision",
            match decision.direction {
                Direction::Tighten => "tighten",
                Direction::BackOff => "back_off",
                Direction::Hold => "hold",
            },
        );
        span.attr("reason", &decision.reason);
        if let Err(e) = self
            .ts
            .append(cycle, &[(sid::INTERVAL_MS_ID, decision.interval_ms as f64)])
        {
            self.events
                .error("daemon", format!("telemetry append failed: {e}"));
        }
        self.last_health = Some(FleetHealth {
            cycle,
            sites,
            adaptive: self.controller.status(),
        });
    }

    /// Checkpoints the accumulator + health counters and truncates the
    /// WAL. Called automatically every `snapshot_every` cycles; callable
    /// explicitly for a clean shutdown. No-op without a state dir.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the snapshot cannot be written.
    pub fn commit_snapshot(&self) -> std::io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        store.commit_snapshot(&DaemonSnapshot {
            version: DAEMON_SNAPSHOT_VERSION,
            cycle: self.health.cycles,
            acc: self.acc.snapshot(),
            health: self.health.clone(),
        })
    }

    /// The cycle the daemon recovered to at startup (0 = fresh start).
    pub fn recovered_cycle(&self) -> u64 {
        self.recovered_cycle
    }

    /// The paging decision of the most recent cycle.
    pub fn last_outcome(&self) -> Option<&CycleOutcome> {
        self.last_outcome.as_ref()
    }

    /// The report cool-down ledger.
    pub fn ledger(&self) -> &ReportLedger {
        &self.ledger
    }

    /// Mutable ledger access (operator acknowledgements).
    pub fn ledger_mut(&mut self) -> &mut ReportLedger {
        &mut self.ledger
    }

    /// The per-target circuit breakers.
    pub fn breakers(&self) -> &BreakerSet {
        &self.breakers
    }

    /// The analysis report from the most recent cycle.
    pub fn last_report(&self) -> Option<&Report> {
        self.last_report.as_ref()
    }

    /// Lifetime health counters.
    pub fn health(&self) -> &HealthCounters {
        &self.health
    }

    /// The streaming accumulator (for tests and ad-hoc inspection).
    pub fn accumulator(&self) -> &FleetAccumulator {
        &self.acc
    }

    /// The static tier, when configured (for tests and inspection).
    pub fn static_tier(&self) -> Option<&StaticTier> {
        self.static_tier.as_ref()
    }

    /// The race tier, when configured (for tests and inspection).
    pub fn race_tier(&self) -> Option<&RaceTier> {
        self.race_tier.as_ref()
    }

    /// The cycle tracer every pipeline stage records into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The structured event log the daemon and its tiers record into
    /// (the `GET /logs` document).
    pub fn events(&self) -> &obs::EventLog {
        &self.events
    }

    /// The worker board behind the daemon's own `/debug/self` profile.
    pub fn worker_board(&self) -> &WorkerBoard {
        &self.board
    }

    /// The scraper (keep-alive pool counters and config).
    pub fn scraper(&self) -> &Scraper {
        &self.scraper
    }

    /// The embedded telemetry store (range queries, backtest).
    pub fn ts(&self) -> &TsStore {
        &self.ts
    }

    /// Flushes the telemetry store to disk (clean shutdown).
    ///
    /// # Errors
    ///
    /// Returns the snapshot-write error; in-memory state is unaffected.
    pub fn flush_telemetry(&mut self) -> std::io::Result<()> {
        self.ts.flush()
    }

    /// The most recent fleet-health verdicts (None before cycle 1).
    pub fn fleet_health(&self) -> Option<&FleetHealth> {
        self.last_health.as_ref()
    }

    /// The adaptive interval controller's current state.
    pub fn adaptive_status(&self) -> AdaptiveStatus {
        self.controller.status()
    }

    /// The interval the serve loop should sleep before the next cycle:
    /// the controller's current interval when adaptivity is enabled,
    /// else `fallback_ms` (the fixed `--interval-ms`).
    pub fn current_interval_ms(&self, fallback_ms: u64) -> u64 {
        if self.controller.enabled() {
            self.controller.interval_ms()
        } else {
            fallback_ms
        }
    }

    /// The retained cycle traces plus per-stage latency summaries
    /// (served at `/trace`).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Builds the status snapshot.
    pub fn status(&self) -> DaemonStatus {
        DaemonStatus {
            cycles: self.health.cycles,
            targets: self.targets.len(),
            profiles_ingested: self.acc.profiles_ingested(),
            success_rate: self.health.success_rate(),
            p50_us: self.health.latency.p50_us(),
            p99_us: self.health.latency.p99_us(),
            top: self.last_report.as_ref().map(top_sites).unwrap_or_default(),
            recovered_cycle: self.recovered_cycle,
            breakers: self.breakers.summary(self.targets.len()),
            ledger: self.ledger.summary(),
            static_tier: self.static_tier.as_ref().map(|t| t.stats().clone()),
            race_tier: self.race_tier.as_ref().map(|t| t.stats().clone()),
            stages: self.tracer.stage_summaries(),
            spans_recorded: self.tracer.spans_recorded(),
            spans_dropped: self.tracer.spans_dropped(),
            keepalive: self.scraper.keepalive_summary(),
            adaptive: self.controller.status(),
            ts_series: self.ts.series_ids().len(),
            shard: self.shard.clone(),
            ingest: self.ingest.as_ref().map(|t| t.summary()),
        }
    }

    /// Renders the daemon's own metrics in Prometheus text exposition
    /// format: every family announced with `# HELP`/`# TYPE`, all names
    /// under the `leakprofd_` prefix (conformance-tested in
    /// `tests/metrics_conformance.rs`).
    pub fn metrics_text(&self) -> String {
        let mut p = PromText::new();
        self.health.render_into(&mut p);
        let breakers = self.breakers.summary(self.targets.len());
        p.family(
            "leakprofd_breaker_targets",
            "gauge",
            "Scrape targets by circuit-breaker state.",
        );
        for (state, v) in [
            ("closed", breakers.closed),
            ("open", breakers.open),
            ("half_open", breakers.half_open),
        ] {
            p.sample("leakprofd_breaker_targets", &[("state", state)], v);
        }
        p.family(
            "leakprofd_breaker_opened_total",
            "counter",
            "Circuit-breaker open transitions.",
        );
        p.sample("leakprofd_breaker_opened_total", &[], breakers.opened_total);
        let ledger = self.ledger.summary();
        p.family(
            "leakprofd_reports_total",
            "counter",
            "Suspect reports by paging decision.",
        );
        p.sample(
            "leakprofd_reports_total",
            &[("result", "paged")],
            ledger.reported_total,
        );
        p.sample(
            "leakprofd_reports_total",
            &[("result", "suppressed")],
            ledger.suppressed_total,
        );
        if let Some(tier) = &self.static_tier {
            let stats = tier.stats();
            p.family(
                "leakprofd_static_cache_hits_total",
                "counter",
                "Criterion-2 verdicts served from the persistent cache.",
            );
            p.sample("leakprofd_static_cache_hits_total", &[], stats.cache_hits);
            p.family(
                "leakprofd_static_cache_misses_total",
                "counter",
                "Criterion-2 cache misses (file parsed or re-parsed).",
            );
            p.sample(
                "leakprofd_static_cache_misses_total",
                &[],
                stats.cache_misses,
            );
            p.family(
                "leakprofd_static_files_parsed_total",
                "counter",
                "Source files parsed by the static tier.",
            );
            p.sample(
                "leakprofd_static_files_parsed_total",
                &[],
                stats.files_parsed,
            );
            p.family(
                "leakprofd_static_parse_errors_total",
                "counter",
                "Source files the static tier failed to parse.",
            );
            p.sample(
                "leakprofd_static_parse_errors_total",
                &[],
                stats.parse_errors,
            );
            p.family(
                "leakprofd_static_covered_files",
                "gauge",
                "Source files with cached criterion-2 verdicts.",
            );
            p.sample("leakprofd_static_covered_files", &[], stats.covered_files);
            p.family(
                "leakprofd_static_last_scan_us",
                "gauge",
                "Duration of the last source-tree scan in microseconds.",
            );
            p.sample("leakprofd_static_last_scan_us", &[], stats.last_scan_us);
            p.family(
                "leakprofd_static_last_analyze_us",
                "gauge",
                "Duration of the last verdict analysis in microseconds.",
            );
            p.sample(
                "leakprofd_static_last_analyze_us",
                &[],
                stats.last_analyze_us,
            );
        }
        if let Some(tier) = &self.race_tier {
            let stats = tier.stats();
            p.family(
                "leakprofd_race_syncs_total",
                "counter",
                "Race-tier source-tree syncs by cache outcome.",
            );
            p.sample(
                "leakprofd_race_syncs_total",
                &[("outcome", "hit")],
                stats.cache_hits,
            );
            p.sample(
                "leakprofd_race_syncs_total",
                &[("outcome", "miss")],
                stats.cache_misses,
            );
            p.family(
                "leakprofd_race_entries_run_total",
                "counter",
                "Entry points interpreted under the happens-before engine.",
            );
            p.sample("leakprofd_race_entries_run_total", &[], stats.entries_run);
            p.family(
                "leakprofd_race_compile_errors_total",
                "counter",
                "Source trees that failed to compile in race mode.",
            );
            p.sample(
                "leakprofd_race_compile_errors_total",
                &[],
                stats.compile_errors,
            );
            p.family(
                "leakprofd_race_suspects",
                "gauge",
                "Race suspects in the current verdict.",
            );
            p.sample("leakprofd_race_suspects", &[], stats.suspects);
            p.family(
                "leakprofd_race_last_sync_us",
                "gauge",
                "Duration of the last race-tier sync in microseconds.",
            );
            p.sample("leakprofd_race_last_sync_us", &[], stats.last_sync_us);
        }
        let keepalive = self.scraper.keepalive_summary();
        p.family(
            "leakprofd_conn_requests_total",
            "counter",
            "Scrape requests by connection mode.",
        );
        p.sample(
            "leakprofd_conn_requests_total",
            &[("mode", "reused")],
            keepalive.reused,
        );
        p.sample(
            "leakprofd_conn_requests_total",
            &[("mode", "fresh")],
            keepalive.fresh,
        );
        p.family(
            "leakprofd_conn_retired_total",
            "counter",
            "Keep-alive connections retired, by reason.",
        );
        p.sample(
            "leakprofd_conn_retired_total",
            &[("reason", "expired")],
            keepalive.expired,
        );
        p.sample(
            "leakprofd_conn_retired_total",
            &[("reason", "reuse_failure")],
            keepalive.reuse_failures,
        );
        p.family(
            "leakprofd_spans_total",
            "counter",
            "Trace spans by ring outcome.",
        );
        p.sample(
            "leakprofd_spans_total",
            &[("outcome", "recorded")],
            self.tracer.spans_recorded(),
        );
        p.sample(
            "leakprofd_spans_total",
            &[("outcome", "dropped")],
            self.tracer.spans_dropped(),
        );
        let stages = self.tracer.stage_histograms();
        if !stages.is_empty() {
            p.family(
                "leakprofd_stage_latency_us",
                "histogram",
                "Pipeline stage latency in microseconds.",
            );
            for (stage, h) in &stages {
                p.histogram(
                    "leakprofd_stage_latency_us",
                    &[("stage", stage.as_str())],
                    h,
                );
            }
        }
        // Declared only when there is something to sample: a family
        // with HELP/TYPE and no series is non-conformant exposition.
        if let Some(report) = self.last_report.as_ref().filter(|r| !r.suspects.is_empty()) {
            p.family(
                "leakprofd_suspect_rms",
                "gauge",
                "Fleet-wide RMS blocked-goroutine impact per suspect site.",
            );
            for s in &report.suspects {
                let site = s.stats.op.to_string();
                p.sample(
                    "leakprofd_suspect_rms",
                    &[("site", site.as_str())],
                    s.stats.rms,
                );
            }
        }
        let adaptive = self.controller.status();
        p.family(
            "leakprofd_interval_ms",
            "gauge",
            "Current scrape interval chosen by the adaptive controller.",
        );
        p.sample("leakprofd_interval_ms", &[], adaptive.interval_ms);
        p.family(
            "leakprofd_interval_changes_total",
            "counter",
            "Adaptive interval changes, by direction.",
        );
        p.sample(
            "leakprofd_interval_changes_total",
            &[("direction", "tighten")],
            adaptive.tightened_total,
        );
        p.sample(
            "leakprofd_interval_changes_total",
            &[("direction", "back_off")],
            adaptive.backed_off_total,
        );
        p.family(
            "leakprofd_ts_series",
            "gauge",
            "Series tracked by the telemetry store.",
        );
        p.sample("leakprofd_ts_series", &[], self.ts.series_ids().len());
        p.family(
            "leakprofd_ts_appends_total",
            "counter",
            "Telemetry batches appended over this process lifetime.",
        );
        p.sample("leakprofd_ts_appends_total", &[], self.ts.appended_total());
        if let Some(tier) = &self.ingest {
            let s = tier.summary();
            p.family(
                "leakprofd_ingest_queue_depth",
                "gauge",
                "Current push-ingest queue depth (profiles admitted, not yet absorbed).",
            );
            p.sample("leakprofd_ingest_queue_depth", &[], s.queue_depth);
            p.family(
                "leakprofd_ingest_queue_depth_observed",
                "gauge",
                "Queue depth observed at admission time, lifetime quantiles.",
            );
            p.sample(
                "leakprofd_ingest_queue_depth_observed",
                &[("quantile", "0.5")],
                s.queue_depth_p50,
            );
            p.sample(
                "leakprofd_ingest_queue_depth_observed",
                &[("quantile", "0.99")],
                s.queue_depth_p99,
            );
            p.family(
                "leakprofd_ingest_push_total",
                "counter",
                "Profile pushes received on /api/push.",
            );
            p.sample("leakprofd_ingest_push_total", &[], s.push_total);
            p.family(
                "leakprofd_ingest_admitted_total",
                "counter",
                "Pushes admitted into the ingest queue.",
            );
            p.sample("leakprofd_ingest_admitted_total", &[], s.admitted_total);
            p.family(
                "leakprofd_ingest_shed_total",
                "counter",
                "Pushes shed at the high watermark with 429 Retry-After.",
            );
            p.sample("leakprofd_ingest_shed_total", &[], s.shed_total);
            p.family(
                "leakprofd_ingest_coalesced_total",
                "counter",
                "Absorbed profiles that replaced an older one from the same instance.",
            );
            p.sample("leakprofd_ingest_coalesced_total", &[], s.coalesced_total);
            p.family(
                "leakprofd_ingest_rejected_total",
                "counter",
                "Pushes rejected before admission, by reason.",
            );
            p.sample(
                "leakprofd_ingest_rejected_total",
                &[("reason", "bad_request")],
                s.bad_request_total,
            );
            p.sample(
                "leakprofd_ingest_rejected_total",
                &[("reason", "accept_saturated")],
                s.http_rejected_total,
            );
        }
        p.family(
            "leakprofd_build_info",
            "gauge",
            "Build metadata; always 1. The version rides the labels.",
        );
        match &self.shard {
            Some(id) => p.sample(
                "leakprofd_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("role", "daemon"),
                    ("shard", &format!("{}/{}", id.shard, id.of)),
                ],
                1u64,
            ),
            None => p.sample(
                "leakprofd_build_info",
                &[("version", env!("CARGO_PKG_VERSION")), ("role", "daemon")],
                1u64,
            ),
        }
        p.family(
            "leakprofd_obs_dropped_total",
            "counter",
            "Observability records dropped at full rings, by kind.",
        );
        p.sample(
            "leakprofd_obs_dropped_total",
            &[("kind", "span")],
            self.tracer.spans_dropped(),
        );
        p.sample(
            "leakprofd_obs_dropped_total",
            &[("kind", "event")],
            self.events.dropped(),
        );
        // Exemplar: the trace id of the worst (slowest) recent cycle,
        // linking this scrape to its stitched timeline. Declared only
        // when a traced cycle has completed — a family with HELP/TYPE
        // and no series is non-conformant exposition.
        if let Some(w) = self.tracer.worst_cycle() {
            p.family(
                "leakprofd_worst_cycle_us",
                "gauge",
                "Duration of the slowest recent cycle; its trace id rides the labels.",
            );
            p.sample(
                "leakprofd_worst_cycle_us",
                &[
                    ("trace_id", w.trace_id.as_str()),
                    ("cycle", &w.cycle.to_string()),
                ],
                w.dur_us,
            );
        }
        p.finish()
    }
}

/// The instance id the daemon serves its own self-profile under.
pub const SELF_INSTANCE: &str = "leakprofd";

/// Every route [`serve_daemon_endpoints`] answers, in display order
/// (also the body of its 404 response, so a typo'd path lists the menu).
pub fn daemon_routes() -> Vec<String> {
    vec![
        "/metrics".into(),
        "/status".into(),
        "/health".into(),
        "/api/push".into(),
        "/api/snapshot".into(),
        "/api/series?id=&from=&to=&res=".into(),
        "/flame?from=&to=".into(),
        "/flame.txt?from=&to=".into(),
        "/flame/self".into(),
        "/flame/self.txt".into(),
        "/trace".into(),
        "/logs?level=&limit=".into(),
        "/debug/self".into(),
        "/instances".into(),
        ProfileHub::profile_path(SELF_INSTANCE),
    ]
}

/// Splits a request-target into (path, query) and decodes the query
/// into key/value pairs (minimal percent-decoding: `%XX` and `+`).
pub(crate) fn parse_query(target: &str) -> (&str, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (path, params)
}

/// Decodes `%XX` escapes and `+`-as-space; invalid escapes pass
/// through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                (Some(hi), Some(lo)) => {
                    out.push((hi * 16 + lo) as u8);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The `/api/series` response envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesResponse {
    /// The queried series id.
    pub id: String,
    /// Inclusive query range start.
    pub from: u64,
    /// Inclusive query range end.
    pub to: u64,
    /// The resolution the store answered at (bucket step; 1 = raw).
    pub res: u64,
    /// Resolutions the store offers.
    pub resolutions: Vec<u64>,
    /// The matching buckets, time-ascending.
    pub points: Vec<timeseries::AggPoint>,
}

/// Answers `/logs?level=&limit=` against an event log: `level` keeps
/// only events at or above the named severity (default: everything),
/// `limit` caps the answer to the newest N (default: the whole ring).
/// Shared by the daemon and the fleet aggregator.
pub(crate) fn serve_logs(events: &obs::EventLog, params: &[(String, String)]) -> Response {
    let get = |k: &str| {
        params
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .filter(|v| !v.is_empty())
    };
    let min = match get("level") {
        None => obs::Level::Debug,
        Some(v) => match obs::Level::parse(v) {
            Some(l) => l,
            None => return Response::error(400, "level must be debug, info, warn, or error"),
        },
    };
    let limit = match get("limit") {
        None => usize::MAX,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "limit must be a non-negative integer"),
        },
    };
    Response::json(
        serde_json::to_string_pretty(&events.recent_filtered(min, limit))
            .expect("events serialize"),
    )
}

/// Answers `/api/series?id=&from=&to=&res=` against a store. `from`
/// defaults to 0, `to` to `u64::MAX`, `res` to auto-pick (the finest
/// resolution still covering `from`).
fn serve_series_query(ts: &TsStore, params: &[(String, String)]) -> Response {
    let get = |k: &str| {
        params
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    let Some(id) = get("id") else {
        return Response::error(400, "missing required parameter: id");
    };
    let from = match get("from").map(str::parse::<u64>) {
        None => 0,
        Some(Ok(v)) => v,
        Some(Err(_)) => return Response::error(400, "from must be a non-negative integer"),
    };
    let to = match get("to").map(str::parse::<u64>) {
        None => u64::MAX,
        Some(Ok(v)) => v,
        Some(Err(_)) => return Response::error(400, "to must be a non-negative integer"),
    };
    let res = match get("res").filter(|s| !s.is_empty()).map(str::parse::<u64>) {
        None => None,
        Some(Ok(v)) if v >= 1 => Some(v),
        Some(_) => return Response::error(400, "res must be a positive integer"),
    };
    if ts.last_t(id).is_none() {
        return Response::error(404, &format!("unknown series: {id}"));
    }
    let points = ts.query(id, from, to, res);
    let answered_res = ts.resolution_for(id, from, res);
    let body = SeriesResponse {
        id: id.to_string(),
        from,
        to,
        res: answered_res,
        resolutions: ts.resolutions(),
        points,
    };
    Response::json(serde_json::to_string_pretty(&body).expect("series response serializes"))
}

/// Serves a shared daemon's endpoints on `addr` (the daemon itself
/// stays driveable through the mutex, so a driver loop can keep calling
/// [`Daemon::run_cycle`] while the server reads):
///
/// * `/metrics`, `/status` — Prometheus text and the JSON
///   [`DaemonStatus`].
/// * `/health` — per-site trend verdicts ([`FleetHealth`] JSON) plus
///   the adaptive-interval state.
/// * `/api/snapshot` — the live merge-tier document ([`ApiSnapshot`]
///   JSON): accumulator + ledger + shard identity, what `leakprofd
///   fleet` polls to fold this daemon into the fleet-wide view.
/// * `/api/series?id=&from=&to=&res=` — range queries over the
///   embedded telemetry store ([`SeriesResponse`] JSON).
/// * `/trace` — the retained cycle span trees + per-stage latency
///   summaries ([`TraceSnapshot`] JSON).
/// * `/logs` — the retained structured events ([`obs::Event`] JSON,
///   oldest first), each stamped with the trace context it happened in.
/// * `/debug/self` — the daemon's **own** goroutine-style profile: its
///   worker threads rendered in the same JSON format the scraped
///   instances serve, so `leakprofd scrape-once` pointed at the daemon
///   ranks the daemon's own blocking sites.
/// * `/instances` + `/instance/leakprofd/debug/pprof/goroutine` — the
///   [`ProfileHub`]-shaped aliases of `/debug/self`, which is what lets
///   the scraper's fleet discovery run against the daemon unchanged.
///
/// The trace, logs, and self-profile routes read tracer/events/board
/// handles cloned out of the daemon up front, so they never contend on
/// the daemon mutex mid-cycle.
///
/// Every request's `traceparent` header (when present and well-formed)
/// opens a SERVE span under the remote trace; every response carries
/// the daemon's current cycle trace context back as a `traceparent`
/// header, which is how push clients join the distributed trace.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_daemon_endpoints(
    daemon: Arc<Mutex<Daemon>>,
    addr: &str,
) -> std::io::Result<HttpServer> {
    serve_daemon_endpoints_with(daemon, addr, 2)
}

/// [`serve_daemon_endpoints`] with an explicit HTTP worker count. With
/// a push-ingest tier configured the accept pool is bounded
/// ([`IngestConfig::accept_pending`]): connections beyond the bound get
/// a graceful `503 Retry-After` instead of queueing without limit, and
/// `POST /api/push` is answered straight off the tier — never through
/// the daemon mutex, so admission keeps working mid-cycle.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_daemon_endpoints_with(
    daemon: Arc<Mutex<Daemon>>,
    addr: &str,
    workers: usize,
) -> std::io::Result<HttpServer> {
    let (tracer, board, events, ingest) = {
        let d = daemon.lock().expect("daemon poisoned");
        (
            d.tracer().clone(),
            d.worker_board().clone(),
            d.events().clone(),
            d.ingest_tier().cloned(),
        )
    };
    let not_found = format!("try {}", daemon_routes().join(", "));
    let options = ServerOptions {
        workers: workers.max(1),
        board: Some(board.clone()),
        max_pending: ingest
            .as_ref()
            .map(|t| t.config().accept_pending)
            .unwrap_or(0),
        overload_retry_ms: ingest
            .as_ref()
            .map(|t| t.config().retry_base_ms)
            .unwrap_or(0),
        overload_rejected: ingest.as_ref().map(|t| t.http_rejected_counter()),
    };
    HttpServer::serve_with_options(addr, options, move |req: &Request| {
        // Remote trace context, when the caller sent one: record a SERVE
        // span pinned under it (a malformed header degrades to no span,
        // never an error). The fleet's `/api/snapshot` poll additionally
        // has its context adopted, so the daemon's *next* cycle joins
        // the fleet's trace instead of minting its own root.
        let remote = req
            .traceparent
            .as_deref()
            .and_then(obs::TraceContext::parse);
        let mut serve_span = remote
            .as_ref()
            .map(|ctx| tracer.start_remote(obs::stage::SERVE, &req.path, ctx));
        if req.path == "/api/snapshot" {
            if let Some(ctx) = &remote {
                tracer.adopt_remote(ctx);
            }
        }
        let mut resp = serve_one(req, &daemon, &ingest, &tracer, &board, &events, &not_found);
        if let Some(span) = &mut serve_span {
            span.attr("status", resp.status);
        }
        drop(serve_span);
        // Answer with the daemon's current trace context so clients —
        // the push client especially — can join the trace next hop.
        if let Some(ctx) = tracer.current_context() {
            resp.headers
                .push((obs::TRACEPARENT.to_string(), ctx.to_header()));
        }
        resp
    })
}

/// Dispatches one request to its route (the body of the daemon's serve
/// closure, split out so the closure itself only handles tracing).
#[allow(clippy::too_many_arguments)]
fn serve_one(
    req: &Request,
    daemon: &Arc<Mutex<Daemon>>,
    ingest: &Option<Arc<IngestTier>>,
    tracer: &Tracer,
    board: &WorkerBoard,
    events: &obs::EventLog,
    not_found: &str,
) -> Response {
    let self_profile_path = ProfileHub::profile_path(SELF_INSTANCE);
    if req.method == "POST" && req.path == "/api/push" {
        return match ingest {
            Some(tier) => tier.handle_push(&req.body),
            None => Response::error(404, "push ingestion is not enabled (serve --push)"),
        };
    }
    match req.path.as_str() {
        "/metrics" => {
            let d = daemon.lock().expect("daemon poisoned");
            Response::text(d.metrics_text())
        }
        "/status" => {
            let d = daemon.lock().expect("daemon poisoned");
            Response::json(serde_json::to_string_pretty(&d.status()).expect("status serializes"))
        }
        "/health" => {
            let d = daemon.lock().expect("daemon poisoned");
            let health = match d.fleet_health() {
                Some(h) => h.clone(),
                // Before the first cycle there are no verdicts yet;
                // serve an empty document rather than a 404 so
                // dashboards can poll from startup.
                None => FleetHealth {
                    cycle: 0,
                    sites: Vec::new(),
                    adaptive: d.adaptive_status(),
                },
            };
            Response::json(serde_json::to_string_pretty(&health).expect("health serializes"))
        }
        "/api/snapshot" => {
            let d = daemon.lock().expect("daemon poisoned");
            Response::json(
                serde_json::to_string_pretty(&d.api_snapshot()).expect("api snapshot serializes"),
            )
        }
        p if parse_query(p).0 == "/api/series" => {
            let (_, params) = parse_query(p);
            let d = daemon.lock().expect("daemon poisoned");
            serve_series_query(d.ts(), &params)
        }
        p if matches!(parse_query(p).0, "/flame" | "/flame.txt") => {
            let (path, params) = parse_query(p);
            let d = daemon.lock().expect("daemon poisoned");
            crate::flame::serve_flame(
                &d.accumulator().snapshot(),
                d.fleet_health(),
                d.ts(),
                &params,
                path == "/flame",
                "leakprofd — blocked goroutines",
                "cycle",
            )
        }
        p if matches!(p, "/flame/self" | "/flame/self.txt") => {
            // Tracer + board handles were cloned out up front, so the
            // self-flame never touches the daemon mutex mid-cycle.
            let g = crate::flame::self_flame(
                &board.self_profile(SELF_INSTANCE),
                &tracer.stage_histograms(),
            );
            if p == "/flame/self" {
                Response::html(g.render_html(&obs::FlameOptions {
                    title: "leakprofd — self time".into(),
                    subtitle: "worker wait stacks (µs) + per-stage cycle latency".into(),
                    ..obs::FlameOptions::default()
                }))
            } else {
                Response::text(g.to_folded())
            }
        }
        "/trace" => Response::json(
            serde_json::to_string_pretty(&tracer.snapshot()).expect("trace serializes"),
        ),
        p if parse_query(p).0 == "/logs" => {
            let (_, params) = parse_query(p);
            serve_logs(events, &params)
        }
        "/instances" => Response::json(
            serde_json::to_string(&vec![SELF_INSTANCE]).expect("instances serialize"),
        ),
        p if p == "/debug/self" || p == self_profile_path => Response::json(
            serde_json::to_string_pretty(&board.self_profile(SELF_INSTANCE))
                .expect("self profile serializes"),
        ),
        _ => Response::error(404, not_found),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoints::ProfileHub;
    use crate::http::http_get;
    use gosim::GoroutineProfile;
    use std::time::Duration;

    fn empty_profile(instance: &str) -> GoroutineProfile {
        GoroutineProfile {
            instance: instance.into(),
            captured_at: 0,
            goroutines: vec![],
        }
    }

    #[test]
    fn daemon_cycles_and_serves_status() {
        let hub = ProfileHub::new();
        for i in 0..3 {
            hub.publish(&empty_profile(&format!("svc-{i}")));
        }
        let server = hub.serve("127.0.0.1:0", 2).unwrap();
        let targets = hub
            .instances()
            .into_iter()
            .map(|id| ScrapeTarget {
                path: ProfileHub::profile_path(&id),
                instance: id,
                addr: server.addr(),
            })
            .collect();

        let daemon = Daemon::new(
            DaemonConfig::default(),
            LeakProf::new(leakprof::Config {
                threshold: 1,
                ast_filter: false,
                top_n: 5,
            }),
            targets,
        )
        .unwrap();
        let daemon = Arc::new(Mutex::new(daemon));
        let endpoint = serve_daemon_endpoints(Arc::clone(&daemon), "127.0.0.1:0").unwrap();

        for _ in 0..2 {
            let report = daemon.lock().unwrap().run_cycle();
            assert_eq!(report.stats.succeeded, 3);
        }

        let status_body = http_get(
            endpoint.addr(),
            "/status",
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
        .unwrap();
        let status: DaemonStatus =
            serde_json::from_str(std::str::from_utf8(&status_body).unwrap()).unwrap();
        assert_eq!(status.cycles, 2);
        assert_eq!(status.profiles_ingested, 6);
        assert!((status.success_rate - 1.0).abs() < 1e-9);

        let metrics = http_get(
            endpoint.addr(),
            "/metrics",
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
        .unwrap();
        let metrics = String::from_utf8(metrics).unwrap();
        assert!(metrics.contains("leakprofd_cycles_total 2"));
        assert!(metrics.contains("leakprofd_spans_total{outcome=\"recorded\"}"));
        assert!(metrics.contains("leakprofd_stage_latency_us_bucket{stage=\"cycle\",le=\""));
        assert!(metrics.contains("leakprofd_stage_latency_us_bucket{stage=\"cycle\",le=\"+Inf\"}"));
        assert!(metrics.contains("leakprofd_stage_latency_us_count{stage=\"cycle\"}"));

        // Two finished cycles must be retained as full span trees, each
        // rooted at a `cycle` span with the pipeline stages under it.
        let trace_body = http_get(
            endpoint.addr(),
            "/trace",
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
        .unwrap();
        let trace: obs::TraceSnapshot =
            serde_json::from_str(std::str::from_utf8(&trace_body).unwrap()).unwrap();
        assert_eq!(trace.cycles.len(), 2);
        for cycle in &trace.cycles {
            let root = cycle
                .spans
                .iter()
                .find(|s| s.stage == obs::stage::CYCLE)
                .expect("cycle root span");
            assert_eq!(root.parent, 0);
            for want in [obs::stage::SCRAPE, obs::stage::INGEST, obs::stage::ANALYZE] {
                let span = cycle
                    .spans
                    .iter()
                    .find(|s| s.stage == want)
                    .unwrap_or_else(|| panic!("missing {want} span"));
                assert_eq!(span.parent, root.id, "{want} must nest under the root");
            }
            let targets: Vec<_> = cycle
                .spans
                .iter()
                .filter(|s| s.stage == obs::stage::TARGET)
                .collect();
            assert_eq!(targets.len(), 3, "one target span per instance");
        }

        // The daemon's own profile is served in the scrapeable format,
        // and its endpoint pool workers show up blocked on their queue.
        let self_body = http_get(
            endpoint.addr(),
            "/debug/self",
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
        .unwrap();
        let profile: gosim::GoroutineProfile =
            serde_json::from_str(std::str::from_utf8(&self_body).unwrap()).unwrap();
        assert_eq!(profile.instance, SELF_INSTANCE);
        assert!(
            profile.goroutines.len() >= 2,
            "endpoint pool workers must be on the board"
        );
        let alias = http_get(
            endpoint.addr(),
            &ProfileHub::profile_path(SELF_INSTANCE),
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
        .unwrap();
        let alias: gosim::GoroutineProfile =
            serde_json::from_str(std::str::from_utf8(&alias).unwrap()).unwrap();
        assert_eq!(alias.instance, SELF_INSTANCE);
        let instances = http_get(
            endpoint.addr(),
            "/instances",
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
        .unwrap();
        let instances: Vec<String> =
            serde_json::from_str(std::str::from_utf8(&instances).unwrap()).unwrap();
        assert_eq!(instances, vec![SELF_INSTANCE.to_string()]);
    }

    #[test]
    fn unknown_route_enumerates_the_menu() {
        let daemon = Daemon::new(DaemonConfig::default(), LeakProf::default(), vec![]).unwrap();
        let endpoint = serve_daemon_endpoints(Arc::new(Mutex::new(daemon)), "127.0.0.1:0").unwrap();
        // Raw TCP: http_get discards non-200 bodies, and the body is
        // exactly what this test is about.
        use std::io::{Read as _, Write as _};
        let mut conn = std::net::TcpStream::connect(endpoint.addr()).unwrap();
        conn.write_all(b"GET /nope HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        for route in daemon_routes() {
            assert!(raw.contains(&route), "404 body must mention {route}: {raw}");
        }
    }

    #[test]
    fn static_tier_parses_once_and_serves_cycles_from_cache() {
        let root =
            std::env::temp_dir().join(format!("leakprofd-daemon-static-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("src");
        let state_dir = root.join("state");
        std::fs::create_dir_all(&state_dir).unwrap();

        let demo = crate::demo::DemoFleet::build(8, 2, 99);
        demo.write_sources(&src_dir).unwrap();
        let nfiles = demo.sources.len() as u64;
        assert!(nfiles > 0);
        let server = demo.hub.serve("127.0.0.1:0", 2).unwrap();
        let targets = demo.targets(server.addr());

        let config = DaemonConfig {
            state_dir: Some(state_dir.clone()),
            static_tier: Some(StaticTierConfig::in_state_dir(src_dir.clone(), &state_dir)),
            ..DaemonConfig::default()
        };
        // Note: the daemon's LeakProf starts with NO indexed sources —
        // criterion-2 coverage comes entirely from the verdict cache.
        let lp = LeakProf::new(leakprof::Config {
            threshold: 1,
            ast_filter: false,
            top_n: 5,
        });
        let mut daemon = Daemon::new(config.clone(), lp, targets.clone()).unwrap();
        {
            let stats = daemon.static_tier().unwrap().stats();
            assert_eq!(stats.cache_misses, nfiles, "cold start misses every file");
            assert_eq!(stats.files_parsed, nfiles);
            assert_eq!(stats.cache_hits, 0);
            assert_eq!(stats.parse_errors, 0);
        }

        for _ in 0..3 {
            daemon.run_cycle();
        }
        {
            let stats = daemon.static_tier().unwrap().stats();
            assert_eq!(
                stats.files_parsed, nfiles,
                "warm cycles must not re-parse anything"
            );
            assert_eq!(stats.cache_hits, 3 * nfiles);
            assert_eq!(stats.syncs, 4);
        }
        let status = daemon.status();
        let tier = status.static_tier.expect("tier stats in status");
        assert_eq!(tier.covered_files, nfiles);
        let metrics = daemon.metrics_text();
        assert!(metrics.contains(&format!("leakprofd_static_cache_hits_total {}", 3 * nfiles)));
        assert!(metrics.contains(&format!("leakprofd_static_files_parsed_total {nfiles}")));
        drop(daemon);

        // A fresh daemon process on the same state dir: the persisted
        // cache answers every file — zero parses, ever.
        let lp = LeakProf::new(leakprof::Config {
            threshold: 1,
            ast_filter: false,
            top_n: 5,
        });
        let daemon = Daemon::new(config, lp, targets).unwrap();
        let stats = daemon.static_tier().unwrap().stats();
        assert_eq!(
            stats.files_parsed, 0,
            "restart must reuse the on-disk cache"
        );
        assert_eq!(stats.cache_hits, nfiles);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn race_suspects_flow_through_the_leak_pipeline() {
        let root =
            std::env::temp_dir().join(format!("leakprofd-daemon-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("src");
        let state_dir = root.join("state");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("acct.go"),
            "package acct\n\nfunc TestUpdate() {\n\tdone := make(chan int)\n\ttotal := 0\n\tgo func() {\n\t\ttotal = total + 1\n\t\tdone <- 1\n\t}()\n\ttotal = total + 1\n\t<-done\n}\n",
        )
        .unwrap();

        let config = DaemonConfig {
            state_dir: Some(state_dir.clone()),
            race_tier: Some(RaceTierConfig::in_state_dir(src_dir.clone(), &state_dir)),
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::new(config, LeakProf::default(), vec![]).unwrap();
        daemon.run_cycle();

        // The race suspect reached the cycle's analysis...
        let report = daemon.last_report().expect("cycle produced a report");
        let race = report
            .suspects
            .iter()
            .find(|s| s.stats.op.kind == leakprof::signature::ChanOpKind::Race)
            .expect("race suspect in the ranked report");
        assert!(race.stats.rms > 0.0);
        assert!(race.render().contains("DATA RACE"));
        // ...the ledger saw it (one open episode page per race site)...
        let race_sites = report
            .suspects
            .iter()
            .filter(|s| s.stats.op.kind == leakprof::signature::ChanOpKind::Race)
            .count();
        assert_eq!(daemon.ledger.summary().active, race_sites);
        // ...and the telemetry store tracks its fingerprint for /health.
        let fp = sid::site_fingerprint(&race.stats);
        assert!(
            daemon.ts().series_ids().contains(&sid::site_rms_id(&fp)),
            "race site must have an RMS series"
        );

        // Warm cycle: cache hit, identical verdict, counters exposed.
        daemon.run_cycle();
        let stats = daemon.race_tier().unwrap().stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.suspects, race_sites as u64);
        let status = daemon.status();
        assert_eq!(
            status.race_tier.expect("race stats in status").suspects,
            race_sites as u64
        );
        let metrics = daemon.metrics_text();
        assert!(metrics.contains("leakprofd_race_syncs_total{outcome=\"hit\"} 1"));
        assert!(metrics.contains(&format!("leakprofd_race_suspects {race_sites}")));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
