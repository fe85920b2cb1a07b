//! Durable daemon state: a versioned snapshot of the streaming
//! accumulator plus a write-ahead log of ingested cycles.
//!
//! The crash-safety protocol:
//!
//! 1. Every cycle's scraped profiles are appended to `wal.jsonl`
//!    **before** they are ingested into the accumulator.
//! 2. Every `snapshot_every` cycles the full accumulator state is
//!    written to `snapshot.json` with [`durable::write_atomic`], then the
//!    WAL is truncated.
//! 3. Recovery loads the snapshot (if any) and replays WAL entries with
//!    `cycle > snapshot.cycle`. The filter makes a crash *between* the
//!    rename and the truncate harmless: stale WAL entries are simply
//!    ignored.
//!
//! Because [`leakprof::AccumulatorSnapshot`] preserves the accumulator's
//! per-instance ingestion order verbatim and WAL replay re-ingests the
//! exact profiles, a recovered daemon produces **byte-identical** ranked
//! reports to one that never crashed (see `tests/chaos.rs`).

use std::path::{Path, PathBuf};

use durable::{AppendLog, SyncMode};
use gosim::GoroutineProfile;
use leakprof::AccumulatorSnapshot;
use serde::{Deserialize, Serialize};

use crate::stats::{CycleStats, HealthCounters};

/// Version tag written into every daemon snapshot. Bump on any layout
/// change; recovery refuses unknown versions instead of misparsing.
pub const DAEMON_SNAPSHOT_VERSION: u32 = 1;

/// The durable image of a daemon at a cycle boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonSnapshot {
    /// Format version ([`DAEMON_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The cycle this snapshot was taken after; WAL entries at or below
    /// this cycle are already folded in.
    pub cycle: u64,
    /// The streaming accumulator, ranking-exact.
    pub acc: AccumulatorSnapshot,
    /// Lifetime health counters as of `cycle`.
    pub health: HealthCounters,
}

/// One write-ahead-log line: everything needed to replay a cycle's
/// effect on the daemon without re-scraping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalEntry {
    /// The cycle number this entry records (1-based, daemon lifetime).
    pub cycle: u64,
    /// Profiles scraped this cycle, in ingestion order.
    pub profiles: Vec<GoroutineProfile>,
    /// The cycle's scrape-health stats (replayed into the counters).
    pub stats: CycleStats,
}

/// What recovery found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The committed snapshot, if one exists.
    pub snapshot: Option<DaemonSnapshot>,
    /// WAL entries newer than the snapshot, oldest first.
    pub wal: Vec<WalEntry>,
    /// Parse error of a torn trailing WAL line that was discarded (the
    /// signature of a crash mid-append).
    pub dropped_trailing: Option<String>,
}

impl Recovery {
    /// True when there was no durable state at all (fresh start).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.wal.is_empty()
    }

    /// The highest cycle the recovered state reaches.
    pub fn last_cycle(&self) -> u64 {
        self.wal
            .last()
            .map(|e| e.cycle)
            .or_else(|| self.snapshot.as_ref().map(|s| s.cycle))
            .unwrap_or(0)
    }
}

/// Manages `snapshot.json` + `wal.jsonl` inside a state directory.
pub struct SnapshotStore {
    dir: PathBuf,
    wal: AppendLog,
    tracer: obs::Tracer,
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("dir", &self.dir)
            .finish()
    }
}

impl SnapshotStore {
    /// Opens (creating if needed) the state directory.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<SnapshotStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            wal: AppendLog::open(dir.join("wal.jsonl"), SyncMode::Data),
            dir,
            tracer: obs::Tracer::disabled(),
        })
    }

    /// Records a span for every WAL append and snapshot commit on
    /// `tracer` from now on.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }

    /// Path of the committed snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.wal.path().to_path_buf()
    }

    /// Appends one WAL entry and syncs it to disk. Call *before*
    /// ingesting the cycle, so a crash after the append replays the
    /// cycle instead of losing it.
    ///
    /// # Errors
    ///
    /// Returns an IO error on write failure.
    pub fn append_wal(&self, entry: &WalEntry) -> std::io::Result<()> {
        let mut span = self.tracer.start(obs::stage::WAL_APPEND, "");
        span.attr("profiles", entry.profiles.len());
        span.attr("bytes", self.wal.append(entry)?);
        Ok(())
    }

    /// Commits a snapshot atomically and truncates the WAL it
    /// supersedes. A crash between the rename and the truncate leaves
    /// stale WAL entries behind, which [`Self::recover`] filters out by
    /// cycle number.
    ///
    /// # Errors
    ///
    /// Returns an IO error on write failure.
    pub fn commit_snapshot(&self, snapshot: &DaemonSnapshot) -> std::io::Result<()> {
        let body = serde_json::to_string_pretty(snapshot).expect("snapshot serializes");
        let mut span = self.tracer.start(obs::stage::SNAPSHOT, "");
        span.attr("bytes", body.len());
        span.attr("cycle", snapshot.cycle);
        durable::write_atomic(&self.snapshot_path(), body.as_bytes())?;
        // The WAL up to snapshot.cycle is now redundant.
        self.wal.truncate()
    }

    /// Loads the committed snapshot and the WAL entries newer than it.
    /// A torn trailing WAL line (crash mid-append) is discarded,
    /// reported via [`Recovery::dropped_trailing`], and truncated away
    /// so the next append starts clean; mid-file corruption or an
    /// unknown snapshot version is an error.
    ///
    /// # Errors
    ///
    /// IO errors, [`std::io::ErrorKind::InvalidData`] for a corrupt
    /// snapshot, mid-WAL corruption, or an unsupported version.
    pub fn recover(&self) -> std::io::Result<Recovery> {
        let path = self.snapshot_path();
        let snapshot: Option<DaemonSnapshot> = durable::read_json(&path)?;
        if let Some(snap) = &snapshot {
            if snap.version != DAEMON_SNAPSHOT_VERSION {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: snapshot version {} unsupported (expected {})",
                        path.display(),
                        snap.version,
                        DAEMON_SNAPSHOT_VERSION
                    ),
                ));
            }
        }
        let loaded = self.wal.load::<WalEntry>()?;
        let floor = snapshot.as_ref().map(|s| s.cycle).unwrap_or(0);
        let wal: Vec<WalEntry> = loaded
            .records
            .into_iter()
            .filter(|e| e.cycle > floor)
            .collect();
        Ok(Recovery {
            snapshot,
            wal,
            dropped_trailing: loaded.dropped_trailing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosim::Gid;
    use gosim::{Frame, GoStatus, GoroutineRecord, Loc};
    use leakprof::FleetAccumulator;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leakprofd-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn profile(instance: &str, count: usize) -> GoroutineProfile {
        let rec = GoroutineRecord {
            gid: Gid(1),
            name: "pay.Process$1".into(),
            status: GoStatus::ChanSend { nil_chan: false },
            stack: vec![
                Frame::runtime("runtime.gopark"),
                Frame::runtime("runtime.chansend1"),
                Frame::new("pay.Process$1", Loc::new("pay/handler.go", 42)),
            ],
            created_by: Frame::new("pay.Process", Loc::new("pay/handler.go", 1)),
            wait_ticks: 100,
            retained_bytes: 8192,
        };
        GoroutineProfile {
            instance: instance.into(),
            captured_at: 0,
            goroutines: vec![rec; count],
        }
    }

    fn snapshot_at(cycle: u64, profiles: &[GoroutineProfile]) -> DaemonSnapshot {
        let mut acc = FleetAccumulator::new();
        for p in profiles {
            acc.ingest(p);
        }
        DaemonSnapshot {
            version: DAEMON_SNAPSHOT_VERSION,
            cycle,
            acc: acc.snapshot(),
            health: HealthCounters::default(),
        }
    }

    #[test]
    fn fresh_store_recovers_empty() {
        let dir = temp_dir("fresh");
        let store = SnapshotStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.is_empty());
        assert_eq!(rec.last_cycle(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roundtrips_and_truncates_wal() {
        let dir = temp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        let profiles = vec![profile("svc-0", 60), profile("svc-1", 40)];
        store
            .append_wal(&WalEntry {
                cycle: 1,
                profiles: profiles.clone(),
                stats: CycleStats::default(),
            })
            .unwrap();
        store.commit_snapshot(&snapshot_at(1, &profiles)).unwrap();

        let rec = store.recover().unwrap();
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(snap.cycle, 1);
        let acc = FleetAccumulator::from_snapshot(&snap.acc).unwrap();
        assert_eq!(acc.profiles_ingested(), 2);
        // The commit truncated the WAL.
        assert!(rec.wal.is_empty());
        assert_eq!(std::fs::metadata(store.wal_path()).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_filters_wal_by_snapshot_cycle() {
        let dir = temp_dir("filter");
        let store = SnapshotStore::open(&dir).unwrap();
        store.commit_snapshot(&snapshot_at(2, &[])).unwrap();
        // Simulate a crash between rename and truncate: stale entries
        // (cycle <= 2) coexist with fresh ones.
        for cycle in 1..=4 {
            store
                .append_wal(&WalEntry {
                    cycle,
                    profiles: vec![profile("svc-0", cycle as usize)],
                    stats: CycleStats::default(),
                })
                .unwrap();
        }
        let rec = store.recover().unwrap();
        assert_eq!(
            rec.wal.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![3, 4],
            "entries already folded into the snapshot are skipped"
        );
        assert_eq!(rec.last_cycle(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_wal_entry_is_discarded() {
        let dir = temp_dir("torn");
        let store = SnapshotStore::open(&dir).unwrap();
        store
            .append_wal(&WalEntry {
                cycle: 1,
                profiles: vec![profile("svc-0", 3)],
                stats: CycleStats::default(),
            })
            .unwrap();
        // Crash mid-append: half a second entry, no newline.
        let mut content = std::fs::read_to_string(store.wal_path()).unwrap();
        let half: String = content.chars().take(content.len() / 2).collect();
        content.push_str(&half);
        std::fs::write(store.wal_path(), &content).unwrap();

        let rec = store.recover().unwrap();
        assert_eq!(rec.wal.len(), 1);
        assert_eq!(rec.wal[0].cycle, 1);
        assert!(rec.dropped_trailing.is_some());

        // The daemon keeps appending after recovery: both new cycles
        // must survive the next recovery, not glue onto the torn bytes.
        for cycle in 2..=3 {
            store
                .append_wal(&WalEntry {
                    cycle,
                    profiles: vec![profile("svc-0", cycle as usize)],
                    stats: CycleStats::default(),
                })
                .unwrap();
        }
        let rec = store.recover().unwrap();
        assert_eq!(
            rec.wal.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(rec.dropped_trailing.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_snapshot_version_is_rejected() {
        let dir = temp_dir("version");
        let store = SnapshotStore::open(&dir).unwrap();
        let mut snap = snapshot_at(1, &[]);
        snap.version = DAEMON_SNAPSHOT_VERSION + 7;
        store.commit_snapshot(&snap).unwrap();
        let err = store.recover().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
