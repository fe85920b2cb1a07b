//! Report hygiene: a persistent cool-down ledger so each leak site pages
//! its owner **once per regression episode** instead of every cycle.
//!
//! A suspect is identified by its fingerprint — the blocking operation
//! plus source site (`send at pay/handler.go:42`), which is exactly what
//! [`leakprof::OwnerDb`] routes on. The episode state machine:
//!
//! * First sighting opens an **episode**: the suspect is reported and
//!   implicitly acknowledged at its current RMS.
//! * While the episode is active, further sightings are **suppressed**
//!   unless RMS climbs past `reopen_factor ×` the acknowledged level —
//!   a genuinely worsening leak re-pages with a fresh episode.
//! * A site absent from the ranking for `close_after_cycles` cycles is
//!   marked **resolved**; if it ever comes back, that regression opens a
//!   new episode and is reported again.
//! * Operators can [`ReportLedger::acknowledge`] at a higher RMS to
//!   raise the re-page bar without waiting for a new episode.
//!
//! The ledger persists itself ([`durable::write_atomic`]) on every mutation, so
//! a daemon crash never forgets what was already acknowledged — restart
//! must not re-page the whole fleet (`tests/chaos.rs` asserts this).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use leakprof::Suspect;
use serde::{Deserialize, Serialize};

/// Version tag of the persisted ledger format.
pub const LEDGER_VERSION: u32 = 1;

/// Cool-down tuning.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// RMS multiplier over the acknowledged level that re-opens an
    /// active episode (1.25 = re-page on a 25% worse leak).
    pub reopen_factor: f64,
    /// Cycles a site must be absent from the ranking before its episode
    /// closes (so one noisy cycle does not end an episode).
    pub close_after_cycles: u64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            reopen_factor: 1.25,
            close_after_cycles: 3,
        }
    }
}

/// Whether a fingerprint's current episode is ongoing or closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpisodeState {
    /// The site is (or recently was) in the ranking; reports suppressed.
    Active,
    /// The site disappeared; the next sighting is a new regression.
    Resolved,
}

/// Persistent per-fingerprint state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The suspect fingerprint (rendered blocking op + site).
    pub fingerprint: String,
    /// Owner the last report was routed to, if resolved.
    pub owner: Option<String>,
    /// 1-based episode counter; bumps on every re-open/regression.
    pub episode: u32,
    /// Episode state.
    pub state: EpisodeState,
    /// Cycle of the first-ever sighting.
    pub first_cycle: u64,
    /// Cycle of the most recent sighting.
    pub last_seen_cycle: u64,
    /// RMS level the owner is considered to have acknowledged.
    pub acked_rms: f64,
    /// Highest RMS ever observed for this fingerprint.
    pub peak_rms: f64,
    /// Reports actually emitted (== episodes opened).
    pub reports: u64,
}

/// What [`ReportLedger::apply`] decided for one cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleOutcome {
    /// Fingerprints that should page their owners this cycle (new sites,
    /// regressions, or active leaks that got `reopen_factor×` worse).
    pub reported: Vec<String>,
    /// Suspects present in the ranking but suppressed by cool-down.
    pub suppressed: usize,
    /// Fingerprints whose episodes closed this cycle.
    pub resolved: Vec<String>,
    /// The distributed trace id of the cycle that produced this
    /// decision, when the ledger's tracer was inside one — the
    /// exemplar that links a page back to its stitched timeline.
    pub trace_id: Option<String>,
}

/// Aggregate ledger counts for `/status` and `/metrics`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// Fingerprints ever tracked.
    pub tracked: usize,
    /// Fingerprints with an open episode.
    pub active: usize,
    /// Fingerprints whose last episode closed.
    pub resolved: usize,
    /// Reports emitted over the ledger lifetime.
    pub reported_total: u64,
    /// Sightings suppressed by cool-down over the ledger lifetime.
    pub suppressed_total: u64,
}

impl std::fmt::Display for LedgerSummary {
    /// The one-line summary the CLI prints under every ranking.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ledger: {} site(s) tracked ({} active), {} paged / {} suppressed all-time",
            self.tracked, self.active, self.reported_total, self.suppressed_total
        )
    }
}

/// On-disk layout (entries kept sorted by fingerprint so saving the same
/// state twice is byte-identical).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LedgerFile {
    version: u32,
    reported_total: u64,
    suppressed_total: u64,
    entries: Vec<LedgerEntry>,
}

/// The cool-down ledger.
pub struct ReportLedger {
    config: LedgerConfig,
    path: Option<PathBuf>,
    entries: BTreeMap<String, LedgerEntry>,
    reported_total: u64,
    suppressed_total: u64,
    tracer: obs::Tracer,
}

impl std::fmt::Debug for ReportLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportLedger")
            .field("config", &self.config)
            .field("path", &self.path)
            .field("entries", &self.entries)
            .field("reported_total", &self.reported_total)
            .field("suppressed_total", &self.suppressed_total)
            .finish()
    }
}

impl ReportLedger {
    /// Creates an in-memory ledger (no persistence).
    pub fn new(config: LedgerConfig) -> Self {
        ReportLedger {
            config,
            path: None,
            entries: BTreeMap::new(),
            reported_total: 0,
            suppressed_total: 0,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Installs the tracer that [`ReportLedger::apply`] records its
    /// spans into.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }

    /// Opens a persistent ledger at `path`, loading existing state.
    ///
    /// # Errors
    ///
    /// IO errors, or [`std::io::ErrorKind::InvalidData`] if the file is
    /// corrupt or has an unsupported version. (The file is only ever
    /// committed whole via rename, so corruption is not a torn write.)
    pub fn open(path: impl AsRef<Path>, config: LedgerConfig) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut ledger = ReportLedger::new(config);
        if let Some(file) = durable::read_json::<LedgerFile>(&path)? {
            if file.version != LEDGER_VERSION {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: ledger version {} unsupported (expected {})",
                        path.display(),
                        file.version,
                        LEDGER_VERSION
                    ),
                ));
            }
            ledger.reported_total = file.reported_total;
            ledger.suppressed_total = file.suppressed_total;
            for e in file.entries {
                ledger.entries.insert(e.fingerprint.clone(), e);
            }
        }
        ledger.path = Some(path);
        Ok(ledger)
    }

    /// The fingerprint a suspect is deduplicated on: the rendered
    /// blocking operation + source site. Delegates to
    /// [`leakprof::site_fingerprint`], the same scheme the telemetry
    /// store keys site series on, so a ledger episode and a `/health`
    /// trend line always name the same thing.
    pub fn fingerprint(suspect: &Suspect) -> String {
        leakprof::site_fingerprint(&suspect.stats)
    }

    /// Folds one cycle's ranked suspects into the ledger and decides
    /// which of them should actually page. Persists on change.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the ledger file cannot be written (the
    /// in-memory decision is still applied).
    pub fn apply(&mut self, cycle: u64, suspects: &[Suspect]) -> std::io::Result<CycleOutcome> {
        let mut span = self.tracer.start(obs::stage::LEDGER, "");
        span.attr("suspects", suspects.len());
        let mut outcome = CycleOutcome {
            trace_id: self.tracer.current_trace_id(),
            ..CycleOutcome::default()
        };
        let mut dirty = false;
        for s in suspects {
            let fp = Self::fingerprint(s);
            let rms = s.stats.rms;
            match self.entries.get_mut(&fp) {
                None => {
                    self.entries.insert(
                        fp.clone(),
                        LedgerEntry {
                            fingerprint: fp.clone(),
                            owner: s.owner.clone(),
                            episode: 1,
                            state: EpisodeState::Active,
                            first_cycle: cycle,
                            last_seen_cycle: cycle,
                            acked_rms: rms,
                            peak_rms: rms,
                            reports: 1,
                        },
                    );
                    self.reported_total += 1;
                    outcome.reported.push(fp);
                    dirty = true;
                }
                Some(e) => {
                    e.last_seen_cycle = cycle;
                    e.peak_rms = e.peak_rms.max(rms);
                    e.owner = s.owner.clone();
                    if e.state == EpisodeState::Resolved {
                        // Regression: the leak came back.
                        e.state = EpisodeState::Active;
                        e.episode += 1;
                        e.acked_rms = rms;
                        e.reports += 1;
                        self.reported_total += 1;
                        outcome.reported.push(fp);
                    } else if rms > e.acked_rms * self.config.reopen_factor {
                        // Actively worsening past the acknowledged level.
                        e.episode += 1;
                        e.acked_rms = rms;
                        e.reports += 1;
                        self.reported_total += 1;
                        outcome.reported.push(fp);
                    } else {
                        self.suppressed_total += 1;
                        outcome.suppressed += 1;
                    }
                    dirty = true;
                }
            }
        }
        let in_ranking: std::collections::BTreeSet<String> =
            suspects.iter().map(Self::fingerprint).collect();
        for (fp, e) in self.entries.iter_mut() {
            if e.state == EpisodeState::Active
                && !in_ranking.contains(fp)
                && cycle.saturating_sub(e.last_seen_cycle) >= self.config.close_after_cycles
            {
                e.state = EpisodeState::Resolved;
                outcome.resolved.push(fp.clone());
                dirty = true;
            }
        }
        if dirty {
            self.save()?;
        }
        span.attr("reported", outcome.reported.len());
        span.attr("suppressed", outcome.suppressed);
        span.attr("resolved", outcome.resolved.len());
        Ok(outcome)
    }

    /// Folds one shard ledger's entry into this fleet-wide ledger,
    /// deduplicating by fingerprint. Conflict rules are chosen so a
    /// merge never loses operator intent:
    ///
    /// * `acked_rms` takes the **max** — [`ReportLedger::acknowledge`]
    ///   only ever raises the level, so the max *is* the latest
    ///   effective ack, and an ack on any shard survives the merge.
    /// * `first_cycle` takes the **min**: the earliest cycle any shard
    ///   opened an episode for the site is when the fleet first saw it.
    /// * `last_seen_cycle`, `peak_rms`, `episode`, and `reports` take
    ///   the max (shards observe the same underlying episode; summing
    ///   would double-count it).
    /// * The state is `Active` if *any* shard's episode is open, and
    ///   the owner comes from the shard that saw the site last.
    ///
    /// Does not persist; callers fold all shards then [`apply`] or
    /// save via [`ReportLedger::merge_entries`].
    ///
    /// [`apply`]: ReportLedger::apply
    pub fn merge_entry(&mut self, other: &LedgerEntry) {
        match self.entries.get_mut(&other.fingerprint) {
            None => {
                self.entries
                    .insert(other.fingerprint.clone(), other.clone());
            }
            Some(e) => {
                if other.last_seen_cycle >= e.last_seen_cycle && other.owner.is_some() {
                    e.owner = other.owner.clone();
                }
                e.acked_rms = e.acked_rms.max(other.acked_rms);
                e.first_cycle = e.first_cycle.min(other.first_cycle);
                e.last_seen_cycle = e.last_seen_cycle.max(other.last_seen_cycle);
                e.peak_rms = e.peak_rms.max(other.peak_rms);
                e.episode = e.episode.max(other.episode);
                e.reports = e.reports.max(other.reports);
                if other.state == EpisodeState::Active {
                    e.state = EpisodeState::Active;
                }
            }
        }
    }

    /// Folds a batch of shard-ledger entries (e.g. one shard's
    /// `/api/snapshot` ledger) into this ledger and persists once.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the ledger file cannot be written.
    pub fn merge_entries<'a>(
        &mut self,
        entries: impl IntoIterator<Item = &'a LedgerEntry>,
    ) -> std::io::Result<()> {
        for e in entries {
            self.merge_entry(e);
        }
        self.save()
    }

    /// Folds a whole shard ledger — entries plus the lifetime
    /// reported/suppressed counters, which *do* sum: each shard's pages
    /// and suppressions really happened — and persists once.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the ledger file cannot be written.
    pub fn merge_from(&mut self, other: &ReportLedger) -> std::io::Result<()> {
        self.reported_total += other.reported_total;
        self.suppressed_total += other.suppressed_total;
        self.merge_entries(other.entries())
    }

    /// Raises the acknowledged RMS for a fingerprint (an operator saying
    /// "known, don't re-page unless it gets worse than this"). Returns
    /// false for unknown fingerprints.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the ledger file cannot be written.
    pub fn acknowledge(&mut self, fingerprint: &str, rms: f64) -> std::io::Result<bool> {
        match self.entries.get_mut(fingerprint) {
            Some(e) => {
                e.acked_rms = e.acked_rms.max(rms);
                self.save()?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The tracked entry for a fingerprint.
    pub fn entry(&self, fingerprint: &str) -> Option<&LedgerEntry> {
        self.entries.get(fingerprint)
    }

    /// All tracked entries, sorted by fingerprint.
    pub fn entries(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.entries.values()
    }

    /// Aggregate counts for `/status`.
    pub fn summary(&self) -> LedgerSummary {
        let active = self
            .entries
            .values()
            .filter(|e| e.state == EpisodeState::Active)
            .count();
        LedgerSummary {
            tracked: self.entries.len(),
            active,
            resolved: self.entries.len() - active,
            reported_total: self.reported_total,
            suppressed_total: self.suppressed_total,
        }
    }

    /// Writes the ledger atomically. No-op for in-memory ledgers.
    fn save(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let file = LedgerFile {
            version: LEDGER_VERSION,
            reported_total: self.reported_total,
            suppressed_total: self.suppressed_total,
            entries: self.entries.values().cloned().collect(),
        };
        let text = serde_json::to_string_pretty(&file).expect("ledger serializes");
        durable::write_atomic(path, text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosim::{Frame, Gid, GoStatus, GoroutineRecord, Loc};
    use leakprof::signature::{BlockedOp, ChanOpKind};
    use leakprof::SiteStats;

    fn suspect(file: &str, line: u32, rms: f64) -> Suspect {
        let op = BlockedOp {
            kind: ChanOpKind::Send,
            loc: Loc::new(file, line),
        };
        Suspect {
            stats: SiteStats {
                op,
                per_instance: vec![("i0".into(), rms as u64)],
                total: rms as u64,
                max_instance: rms as u64,
                instances_over_threshold: 1,
                rms,
                representative: GoroutineRecord {
                    gid: Gid(1),
                    name: "pkg.f$1".into(),
                    status: GoStatus::ChanSend { nil_chan: false },
                    stack: vec![Frame::new("pkg.f$1", Loc::new(file, line))],
                    created_by: Frame::new("pkg.f", Loc::new(file, 1)),
                    wait_ticks: 10,
                    retained_bytes: 1024,
                },
            },
            owner: Some("team-x".into()),
        }
    }

    fn ledger() -> ReportLedger {
        ReportLedger::new(LedgerConfig {
            reopen_factor: 1.25,
            close_after_cycles: 2,
        })
    }

    #[test]
    fn first_sighting_reports_then_suppresses() {
        let mut l = ledger();
        let s = [suspect("a.go", 10, 100.0)];
        let out = l.apply(1, &s).unwrap();
        assert_eq!(out.reported.len(), 1);
        for cycle in 2..6 {
            let out = l.apply(cycle, &s).unwrap();
            assert!(out.reported.is_empty(), "cycle {cycle} re-paged");
            assert_eq!(out.suppressed, 1);
        }
        let sum = l.summary();
        assert_eq!(sum.reported_total, 1);
        assert_eq!(sum.suppressed_total, 4);
    }

    #[test]
    fn worsening_rms_reopens_the_episode() {
        let mut l = ledger();
        l.apply(1, &[suspect("a.go", 10, 100.0)]).unwrap();
        // 20% worse: inside the acknowledged band, stays quiet.
        let out = l.apply(2, &[suspect("a.go", 10, 120.0)]).unwrap();
        assert!(out.reported.is_empty());
        // 30% worse than acked: re-pages, and re-acks at the new level.
        let out = l.apply(3, &[suspect("a.go", 10, 130.0)]).unwrap();
        assert_eq!(out.reported.len(), 1);
        assert_eq!(l.entry(&out.reported[0]).unwrap().episode, 2);
        // 130 → 150 is < 1.25×: quiet again.
        let out = l.apply(4, &[suspect("a.go", 10, 150.0)]).unwrap();
        assert!(out.reported.is_empty());
    }

    #[test]
    fn absence_resolves_then_regression_repages() {
        let mut l = ledger();
        let fp = l.apply(1, &[suspect("a.go", 10, 100.0)]).unwrap().reported[0].clone();
        // Gone for close_after_cycles cycles: episode closes.
        assert!(l.apply(2, &[]).unwrap().resolved.is_empty());
        let out = l.apply(3, &[]).unwrap();
        assert_eq!(out.resolved, vec![fp.clone()]);
        assert_eq!(l.entry(&fp).unwrap().state, EpisodeState::Resolved);
        // Back, even at a LOWER rms: that is a fresh regression.
        let out = l.apply(4, &[suspect("a.go", 10, 50.0)]).unwrap();
        assert_eq!(out.reported, vec![fp.clone()]);
        assert_eq!(l.entry(&fp).unwrap().episode, 2);
    }

    #[test]
    fn acknowledge_raises_the_repage_bar() {
        let mut l = ledger();
        let fp = l.apply(1, &[suspect("a.go", 10, 100.0)]).unwrap().reported[0].clone();
        l.acknowledge(&fp, 400.0).unwrap();
        // 3× worse than the report, but under the operator's ack level.
        let out = l.apply(2, &[suspect("a.go", 10, 300.0)]).unwrap();
        assert!(out.reported.is_empty());
        assert!(!l.acknowledge("no such fingerprint", 1.0).unwrap());
    }

    #[test]
    fn distinct_sites_page_independently() {
        let mut l = ledger();
        let out = l
            .apply(1, &[suspect("a.go", 10, 100.0), suspect("b.go", 20, 90.0)])
            .unwrap();
        assert_eq!(out.reported.len(), 2);
        let out = l
            .apply(2, &[suspect("a.go", 10, 100.0), suspect("c.go", 30, 80.0)])
            .unwrap();
        assert_eq!(out.reported.len(), 1, "only the new site pages");
        assert_eq!(out.suppressed, 1);
    }

    /// Satellite: conflicting shard ledgers merge without losing
    /// operator intent — the latest (highest) ack and the earliest
    /// open-episode cycle both survive.
    #[test]
    fn conflicting_shard_ledgers_merge_ack_and_episode_correctly() {
        // Shard A saw the site first (cycle 2) and its operator acked
        // high; shard B saw it later but more recently, with a lower
        // ack and a different owner.
        let mut a = ledger();
        a.apply(2, &[suspect("a.go", 10, 100.0)]).unwrap();
        let fp = ReportLedger::fingerprint(&suspect("a.go", 10, 100.0));
        a.acknowledge(&fp, 400.0).unwrap();

        let mut b = ledger();
        b.apply(5, &[suspect("a.go", 10, 150.0)]).unwrap();
        b.apply(9, &[suspect("a.go", 10, 180.0)]).unwrap();

        let mut fleet = ledger();
        fleet.merge_from(&a).unwrap();
        fleet.merge_from(&b).unwrap();

        let e = fleet.entry(&fp).unwrap();
        assert_eq!(e.acked_rms, 400.0, "the highest (latest) ack survives");
        assert_eq!(e.first_cycle, 2, "earliest open-episode cycle survives");
        assert_eq!(e.last_seen_cycle, 9);
        assert_eq!(e.peak_rms, 180.0);
        assert_eq!(e.state, EpisodeState::Active);
        assert_eq!(fleet.summary().reported_total, 2, "shard totals sum");

        // Merge order must not matter for the entry state.
        let mut fleet2 = ledger();
        fleet2.merge_from(&b).unwrap();
        fleet2.merge_from(&a).unwrap();
        let e2 = fleet2.entry(&fp).unwrap();
        assert_eq!(e2.acked_rms, 400.0);
        assert_eq!(e2.first_cycle, 2);

        // The merged ledger honors the surviving ack: 350 < 400 stays
        // quiet even though both shards individually acked lower.
        let out = fleet.apply(10, &[suspect("a.go", 10, 350.0)]).unwrap();
        assert!(out.reported.is_empty(), "merged ledger re-paged under ack");
    }

    /// A shard with an open episode keeps the fleet entry active even
    /// when another shard already resolved its own view of the site.
    #[test]
    fn merge_keeps_episode_open_if_any_shard_is_active() {
        let mut a = ledger();
        a.apply(1, &[suspect("a.go", 10, 100.0)]).unwrap();
        a.apply(2, &[]).unwrap();
        let out = a.apply(3, &[]).unwrap();
        assert_eq!(out.resolved.len(), 1);

        let mut b = ledger();
        b.apply(4, &[suspect("a.go", 10, 90.0)]).unwrap();

        let fp = ReportLedger::fingerprint(&suspect("a.go", 10, 90.0));
        let mut fleet = ledger();
        fleet.merge_from(&a).unwrap();
        assert_eq!(fleet.entry(&fp).unwrap().state, EpisodeState::Resolved);
        fleet.merge_from(&b).unwrap();
        assert_eq!(fleet.entry(&fp).unwrap().state, EpisodeState::Active);
    }

    #[test]
    fn persistence_survives_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("leakprofd-ledger-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fp;
        {
            let mut l = ReportLedger::open(&path, LedgerConfig::default()).unwrap();
            fp = l.apply(1, &[suspect("a.go", 10, 100.0)]).unwrap().reported[0].clone();
            l.acknowledge(&fp, 250.0).unwrap();
        }
        {
            let mut l = ReportLedger::open(&path, LedgerConfig::default()).unwrap();
            assert_eq!(l.entry(&fp).unwrap().acked_rms, 250.0);
            // The restart must not re-page an acknowledged leak.
            let out = l.apply(2, &[suspect("a.go", 10, 240.0)]).unwrap();
            assert!(out.reported.is_empty());
            assert_eq!(l.summary().reported_total, 1);
        }
        let _ = std::fs::remove_file(&path);
    }
}
