//! The traced daemon cycle: the same layer calls `Daemon::run_cycle`
//! makes, in the same order, on components the benchmark owns, with a
//! span around each call. Nothing inside the program is instrumented;
//! the spans live in the benchmark's files.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use collector::{
    classify_sites, dedupe_newest_wins, AbsorbedProfile, AdaptiveController, CycleStats,
    DaemonConfig, DaemonSnapshot, HealthCounters, IngestTier, ReportLedger, SnapshotStore,
    StaticTier, StaticTierConfig, WalEntry, DAEMON_SNAPSHOT_VERSION,
};
use gosim::GoroutineProfile;
use leakprof::series as sid;
use leakprof::{FleetAccumulator, LeakProf, Report};
use timeseries::{TrendConfig, TsStore};

use crate::trace::Recorder;

/// Stages the daemon's own tracer summarises into the telemetry store
/// each cycle; the mirror appends one point per stage so `ts.append`
/// does the same amount of work.
const STAGES: [&str; 11] = [
    "cycle",
    "scrape",
    "target",
    "wal_append",
    "ingest",
    "static_sync",
    "analyze",
    "ledger",
    "snapshot",
    "ts_append",
    "trend",
];

/// Byte and count gauges one traced cycle produced.
#[derive(Default)]
pub struct CycleGauges {
    pub wal_bytes: u64,
    pub ts_points: usize,
    pub static_misses: u64,
}

/// The daemon's state, owned by the benchmark.
pub struct Mirror {
    lp: LeakProf,
    acc: FleetAccumulator,
    store: SnapshotStore,
    ledger: ReportLedger,
    static_tier: Option<StaticTier>,
    ts: TsStore,
    trend: TrendConfig,
    controller: AdaptiveController,
    health: HealthCounters,
    snapshot_every: u64,
    dir: PathBuf,
    reaper: Option<Sender<Vec<AbsorbedProfile>>>,
    reaper_thread: Option<JoinHandle<()>>,
}

impl Mirror {
    /// Opens a fresh state dir the way `Daemon::new` does with the
    /// default `DaemonConfig`: snapshot store, ledger, telemetry store,
    /// and (when configured) the static tier's first sync.
    pub fn open(
        dir: &Path,
        mut lp: LeakProf,
        static_tier: Option<StaticTierConfig>,
    ) -> std::io::Result<Mirror> {
        let config = DaemonConfig::default();
        std::fs::create_dir_all(dir)?;
        let store = SnapshotStore::open(dir)?;
        let ledger = ReportLedger::open(dir.join("ledger.json"), config.ledger.clone())?;
        let static_tier = match static_tier {
            Some(cfg) => {
                let mut tier = StaticTier::open(cfg)?;
                lp.install_verdicts(tier.sync()?);
                lp.set_ast_filter(true);
                Some(tier)
            }
            None => None,
        };
        let ts = TsStore::open(dir.join("ts"), config.ts.clone())?;
        // The daemon frees spent profiles off the cycle path after a
        // short pause; so does the mirror.
        let (tx, rx) = channel::<Vec<AbsorbedProfile>>();
        let reaper_thread = std::thread::spawn(move || {
            while let Ok(batch) = rx.recv() {
                std::thread::sleep(Duration::from_millis(150));
                drop(batch);
                while rx.try_recv().is_ok() {}
            }
        });
        Ok(Mirror {
            lp,
            acc: FleetAccumulator::new(),
            store,
            ledger,
            static_tier,
            ts,
            trend: config.trend,
            controller: AdaptiveController::new(config.adaptive),
            health: HealthCounters::default(),
            snapshot_every: config.snapshot_every.max(1),
            dir: dir.to_path_buf(),
            reaper: Some(tx),
            reaper_thread: Some(reaper_thread),
        })
    }

    pub fn accumulator(&self) -> &FleetAccumulator {
        &self.acc
    }

    /// One cycle: `scrape` runs first inside the cycle span (it returns
    /// the pulled profiles and the scrape stats), then the push drain,
    /// WAL, ingest, static sync, ranking, ledger, telemetry, trend and
    /// snapshot layers, each in its own span.
    pub fn cycle(
        &mut self,
        rec: &Recorder,
        push: Option<&IngestTier>,
        scrape: impl FnOnce(&Recorder, u64) -> (Vec<GoroutineProfile>, CycleStats),
    ) -> (Report, CycleGauges) {
        let cycle = self.health.cycles + 1;
        let root = rec.begin("cycle", cycle, None, 0);
        let p = Some("cycle");
        let mut gauges = CycleGauges::default();
        let (pulled, stats) = scrape(rec, cycle);
        let profiles = rec.time("ingest.drain", cycle, p, || match push {
            Some(tier) => dedupe_newest_wins(pulled.clone(), tier.drain_sorted()),
            None => pulled.iter().cloned().map(AbsorbedProfile::raw).collect(),
        });
        let wal_before = file_len(&self.store.wal_path());
        rec.time("snapshot.wal_append", cycle, p, || {
            let entry = WalEntry {
                cycle,
                profiles: profiles.iter().map(|a| a.profile.clone()).collect(),
                stats: stats.clone(),
            };
            self.store.append_wal(&entry).expect("wal append");
        });
        gauges.wal_bytes = file_len(&self.store.wal_path()).saturating_sub(wal_before);
        rec.time("leakprof.ingest", cycle, p, || {
            for a in &profiles {
                match &a.sites {
                    Some(sites) => self.acc.merge_profile_sites(
                        &a.profile.instance,
                        sites,
                        a.profile.len() as u64,
                    ),
                    None => self.acc.ingest(&a.profile),
                }
            }
        });
        if let Some(tier) = &mut self.static_tier {
            let misses = tier.stats().cache_misses;
            let verdicts = rec.time("static_tier.sync", cycle, p, || tier.sync());
            self.lp
                .install_verdicts(verdicts.expect("static tier sync"));
            gauges.static_misses = tier.stats().cache_misses - misses;
        }
        let analysis = rec.time("leakprof.report", cycle, p, || {
            self.lp.report_from_accumulator(&self.acc)
        });
        self.health.absorb(&stats);
        rec.time("ledger.apply", cycle, p, || {
            self.ledger
                .apply(cycle, &analysis.suspects)
                .expect("ledger apply")
        });
        gauges.ts_points = rec.time("timeseries.append", cycle, p, || {
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
            for a in &profiles {
                owned.push((
                    sid::instance_blocked_id(&a.profile.instance),
                    a.profile.goroutines.len() as f64,
                ));
            }
            for stage in STAGES {
                owned.push((sid::stage_p50_id(stage), cycle as f64));
            }
            owned.push((sid::CYCLE_WALL_MS_ID.to_string(), stats.wall_ms));
            let points: Vec<(&str, f64)> = owned.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            self.ts.append(cycle, &points).expect("ts append");
            points.len()
        });
        rec.time("health.classify", cycle, p, || {
            let fps: Vec<String> = analysis
                .suspects
                .iter()
                .map(|s| sid::site_fingerprint(&s.stats))
                .collect();
            let sites = classify_sites(&self.ts, &self.trend, &fps);
            let topk: BTreeSet<String> = fps.into_iter().collect();
            let pick = |f: &dyn Fn(&collector::SiteHealth) -> bool| -> Vec<String> {
                sites
                    .iter()
                    .filter(|s| f(s))
                    .map(|s| s.fingerprint.clone())
                    .collect()
            };
            let regressing = pick(&|s| s.class == "regressing");
            let anomalies = pick(&|s| s.anomaly && s.class != "improving");
            let decision = self
                .controller
                .observe(cycle, &topk, &regressing, &anomalies);
            self.ts
                .append(cycle, &[(sid::INTERVAL_MS_ID, decision.interval_ms as f64)])
                .expect("ts append");
            sites
        });
        if let Some(tx) = &self.reaper {
            let _ = tx.send(profiles);
        }
        if cycle.is_multiple_of(self.snapshot_every) {
            rec.time("snapshot.commit", cycle, p, || {
                self.store
                    .commit_snapshot(&DaemonSnapshot {
                        version: DAEMON_SNAPSHOT_VERSION,
                        cycle: self.health.cycles,
                        acc: self.acc.snapshot(),
                        health: self.health.clone(),
                    })
                    .expect("snapshot commit")
            });
            rec.time("timeseries.flush", cycle, p, || {
                self.ts.flush().expect("ts flush")
            });
        }
        rec.end(root);
        (analysis, gauges)
    }

    pub fn ledger_bytes(&self) -> u64 {
        file_len(&self.dir.join("ledger.json"))
    }

    pub fn snapshot_bytes(&self) -> u64 {
        file_len(&self.store.snapshot_path())
    }
}

impl Drop for Mirror {
    fn drop(&mut self) {
        self.reaper.take();
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Total size of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}
