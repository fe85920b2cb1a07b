//! The multi-resolution store.
//!
//! Layout per series: one bounded ring of raw points plus one bounded
//! ring per configured rollup resolution. A rollup ring holds *sealed*
//! buckets (their time window has passed) and at most one *open* bucket
//! still absorbing points. Appends must be monotone in time per series
//! — the daemon's cycle counter is — which keeps every downsample a
//! single fold and makes rollups mergeable across stores (the same
//! algebra `FleetAccumulator::merge` relies on for sharding).
//!
//! Durability mirrors the daemon's snapshot+WAL scheme on the same
//! [`durable`] primitives: every append batch is written to `wal.jsonl`
//! (flushed) before it is applied, and every `snapshot_every` batches
//! the whole store is rewritten to `store.json` atomically and the WAL
//! truncated. Recovery loads the snapshot, replays the WAL, and drops
//! (and cuts away) exactly one torn trailing WAL line — the signature
//! of a crash mid-append.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::Path;

use durable::{AppendLog, SyncMode};
use serde::{Deserialize, Serialize};

/// On-disk snapshot format version.
pub const STORE_VERSION: u32 = 1;

/// One rollup resolution: buckets of `step` time units, keeping the
/// most recent `capacity` sealed buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollupSpec {
    /// Bucket width in time units (daemon: cycles). Must be ≥ 2.
    pub step: u64,
    /// Sealed buckets retained (oldest evicted beyond this).
    pub capacity: usize,
}

/// Store tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Raw points retained per series.
    pub raw_capacity: usize,
    /// Rollup rings, finest first. Steps must be strictly increasing.
    pub rollups: Vec<RollupSpec>,
    /// Snapshot (and truncate the WAL) every this many append batches;
    /// 0 snapshots only on explicit [`TsStore::flush`].
    pub snapshot_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            // At a 1s scrape interval this is ~8.5 min of raw points,
            // ~1.8 h at step 8, ~14 h at step 64 — the raw@interval →
            // 1m → 15m → 4h ladder scaled to cycle units.
            raw_capacity: 512,
            rollups: vec![
                RollupSpec {
                    step: 8,
                    capacity: 512,
                },
                RollupSpec {
                    step: 64,
                    capacity: 512,
                },
            ],
            snapshot_every: 32,
        }
    }
}

/// One downsampled bucket (or one raw point, where `min == max ==
/// last` and `count == 1`). The mean is derived from `sum`/`count` so
/// merging buckets stays exact for integral values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggPoint {
    /// Bucket start (raw points: the point's own time).
    pub t: u64,
    /// Minimum value in the bucket.
    pub min: f64,
    /// Maximum value in the bucket.
    pub max: f64,
    /// Sum of values (mean = sum / count).
    pub sum: f64,
    /// Most recent value in the bucket.
    pub last: f64,
    /// Points folded into the bucket.
    pub count: u64,
}

impl AggPoint {
    /// A bucket holding a single raw point.
    pub fn raw(t: u64, v: f64) -> AggPoint {
        AggPoint {
            t,
            min: v,
            max: v,
            sum: v,
            last: v,
            count: 1,
        }
    }

    /// Arithmetic mean of the bucket.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds a later point into this bucket.
    fn fold(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.last = v;
        self.count += 1;
    }

    /// Combines this bucket with a *later* bucket covering the same
    /// window (used when merging per-shard stores).
    fn combine(&mut self, later: &AggPoint) {
        self.min = self.min.min(later.min);
        self.max = self.max.max(later.max);
        self.sum += later.sum;
        self.last = later.last;
        self.count += later.count;
    }
}

/// Merges two time-ordered bucket lists (`b` later than or interleaved
/// with `a`); buckets sharing a start are combined. This is the shard
/// merge op: `rollup(xs ++ ys) == merge(rollup(xs), rollup(ys))` for
/// time-ordered inputs, an invariant pinned by the property tests.
pub fn merge_points(a: &[AggPoint], b: &[AggPoint]) -> Vec<AggPoint> {
    let mut by_t: BTreeMap<u64, AggPoint> = BTreeMap::new();
    for p in a.iter().chain(b) {
        match by_t.get_mut(&p.t) {
            Some(existing) => existing.combine(p),
            None => {
                by_t.insert(p.t, p.clone());
            }
        }
    }
    by_t.into_values().collect()
}

/// One rollup ring: sealed buckets plus the still-open one.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RollupRing {
    step: u64,
    capacity: usize,
    sealed: VecDeque<AggPoint>,
    open: Option<AggPoint>,
}

impl RollupRing {
    fn new(spec: &RollupSpec) -> RollupRing {
        RollupRing {
            step: spec.step,
            capacity: spec.capacity.max(1),
            sealed: VecDeque::new(),
            open: None,
        }
    }

    fn push(&mut self, t: u64, v: f64) {
        let bucket = t - t % self.step;
        match &mut self.open {
            Some(open) if open.t == bucket => open.fold(v),
            Some(open) => {
                debug_assert!(open.t < bucket, "appends are monotone");
                let sealed = std::mem::replace(open, AggPoint::raw(bucket, v));
                sealed_push(&mut self.sealed, sealed, self.capacity);
            }
            None => self.open = Some(AggPoint::raw(bucket, v)),
        }
    }

    /// Sealed + open buckets whose window intersects `[from, to]`.
    fn query(&self, from: u64, to: u64) -> Vec<AggPoint> {
        self.sealed
            .iter()
            .chain(self.open.iter())
            .filter(|p| p.t + self.step > from && p.t <= to)
            .cloned()
            .collect()
    }

    /// Start of the oldest retained bucket, if any.
    fn oldest(&self) -> Option<u64> {
        self.sealed.front().or(self.open.as_ref()).map(|p| p.t)
    }
}

fn sealed_push(ring: &mut VecDeque<AggPoint>, p: AggPoint, capacity: usize) {
    if ring.len() == capacity {
        ring.pop_front();
    }
    ring.push_back(p);
}

/// One series: raw ring + rollup rings.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Series {
    raw: VecDeque<AggPoint>,
    rollups: Vec<RollupRing>,
    first_t: u64,
    last_t: u64,
}

impl Series {
    fn new(config: &StoreConfig) -> Series {
        Series {
            raw: VecDeque::new(),
            rollups: config.rollups.iter().map(RollupRing::new).collect(),
            first_t: u64::MAX,
            last_t: 0,
        }
    }

    /// Re-trims every ring to `config`'s capacities (newest kept), for
    /// a series adopted from another store during a merge.
    fn trim(&mut self, config: &StoreConfig) {
        while self.raw.len() > config.raw_capacity {
            self.raw.pop_front();
        }
        for (ring, spec) in self.rollups.iter_mut().zip(&config.rollups) {
            ring.capacity = spec.capacity.max(1);
            while ring.sealed.len() > ring.capacity {
                ring.sealed.pop_front();
            }
        }
    }

    /// Merges `other` (same rollup steps) into this series under the
    /// bucket algebra; `other`'s values win `last` on shared buckets.
    fn merge_from(&mut self, other: &Series, config: &StoreConfig) {
        let mine: Vec<AggPoint> = self.raw.iter().cloned().collect();
        let theirs: Vec<AggPoint> = other.raw.iter().cloned().collect();
        let mut raw: VecDeque<AggPoint> = merge_points(&mine, &theirs).into();
        while raw.len() > config.raw_capacity {
            raw.pop_front();
        }
        self.raw = raw;
        for (ring, other_ring) in self.rollups.iter_mut().zip(&other.rollups) {
            debug_assert_eq!(ring.step, other_ring.step);
            let mine: Vec<AggPoint> = ring
                .sealed
                .iter()
                .chain(ring.open.iter())
                .cloned()
                .collect();
            let theirs: Vec<AggPoint> = other_ring
                .sealed
                .iter()
                .chain(other_ring.open.iter())
                .cloned()
                .collect();
            let mut merged: VecDeque<AggPoint> = merge_points(&mine, &theirs).into();
            // The newest merged bucket stays open only if it was open
            // in an input — it may still absorb appends; every earlier
            // bucket's window has passed.
            let open_ts: Vec<u64> = ring
                .open
                .iter()
                .chain(other_ring.open.iter())
                .map(|p| p.t)
                .collect();
            ring.open = match merged.back() {
                Some(last) if open_ts.contains(&last.t) => merged.pop_back(),
                _ => None,
            };
            while merged.len() > ring.capacity {
                merged.pop_front();
            }
            ring.sealed = merged;
        }
        self.first_t = self.first_t.min(other.first_t);
        self.last_t = self.last_t.max(other.last_t);
    }
}

/// One WAL line: every point appended at one time step.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WalBatch {
    t: u64,
    points: Vec<(String, f64)>,
}

/// Full-store snapshot (`store.json`) as read back. The file also
/// records the writer's `config`; a reopened store runs on the config it
/// is opened with, so the parser skips it.
#[derive(Debug, Deserialize)]
struct StoreSnapshot {
    version: u32,
    series: Vec<(String, Series)>,
}

/// Full-store snapshot as written, atomically, borrowing the live
/// store's data: flushing clones no series.
#[derive(Serialize)]
struct StoreSnapshotRef<'a> {
    version: u32,
    config: &'a StoreConfig,
    series: Vec<(&'a String, &'a Series)>,
}

/// The embedded multi-resolution time-series store.
#[derive(Debug)]
pub struct TsStore {
    config: StoreConfig,
    series: BTreeMap<String, Series>,
    /// The WAL (`<dir>/wal.jsonl`); `None` in memory-only mode.
    wal: Option<AppendLog>,
    appends_since_snapshot: u64,
    appended_total: u64,
}

impl TsStore {
    /// A purely in-memory store (no persistence; a daemon without
    /// `--state-dir` still gets trends and adaptivity).
    pub fn in_memory(config: StoreConfig) -> TsStore {
        TsStore {
            config,
            series: BTreeMap::new(),
            wal: None,
            appends_since_snapshot: 0,
            appended_total: 0,
        }
    }

    /// Opens (or creates) a durable store under `dir`, recovering
    /// snapshot + WAL left by a previous process. A torn trailing WAL
    /// line (crash mid-append) is discarded with a warning and cut from
    /// the file; corruption anywhere else fails the open with
    /// [`std::io::ErrorKind::InvalidData`].
    ///
    /// # Errors
    ///
    /// IO errors creating the directory or reading existing state, or
    /// `InvalidData` for mid-file corruption / an unsupported version.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> std::io::Result<TsStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut store = TsStore::in_memory(config);
        let snap_path = dir.join("store.json");
        if let Some(snap) = durable::read_json::<StoreSnapshot>(&snap_path)? {
            if snap.version != STORE_VERSION {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: store version {} unsupported (want {STORE_VERSION})",
                        snap_path.display(),
                        snap.version
                    ),
                ));
            }
            store.series = snap.series.into_iter().collect();
        }
        // Replay WAL batches written after the snapshot.
        let wal = AppendLog::open(dir.join("wal.jsonl"), SyncMode::Flush);
        let loaded = wal.load::<WalBatch>()?;
        if let Some(e) = &loaded.dropped_trailing {
            eprintln!(
                "timeseries: {}: discarded torn trailing batch (crash mid-append?): {e}",
                wal.path().display()
            );
        }
        for batch in &loaded.records {
            let points: Vec<(&str, f64)> = batch
                .points
                .iter()
                .map(|(id, v)| (id.as_str(), *v))
                .collect();
            store.apply_batch(batch.t, &points);
        }
        store.wal = Some(wal);
        Ok(store)
    }

    /// Appends one batch of `(series id, value)` points at time `t`.
    /// Times must be monotone non-decreasing per series; a point older
    /// than its series' newest is rejected. With persistence on, the
    /// batch hits the WAL (flushed) *before* it is applied, so a crash
    /// at any instant loses at most the in-flight batch.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for out-of-order appends; IO errors from the WAL
    /// (the batch is still applied in memory).
    pub fn append(&mut self, t: u64, points: &[(&str, f64)]) -> std::io::Result<()> {
        for (id, _) in points {
            if let Some(s) = self.series.get(*id) {
                if t < s.last_t {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("series {id}: append at t={t} behind newest t={}", s.last_t),
                    ));
                }
            }
        }
        let wal_err = self.wal.as_ref().and_then(|wal| {
            let batch = WalBatch {
                t,
                points: points.iter().map(|(id, v)| (id.to_string(), *v)).collect(),
            };
            wal.append(&batch).err()
        });
        self.apply_batch(t, points);
        self.appends_since_snapshot += 1;
        self.appended_total += 1;
        if self.config.snapshot_every > 0
            && self.appends_since_snapshot >= self.config.snapshot_every
        {
            self.flush()?;
        }
        match wal_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn apply_batch(&mut self, t: u64, points: &[(&str, f64)]) {
        for (id, v) in points {
            let series = self
                .series
                .entry(id.to_string())
                .or_insert_with(|| Series::new(&self.config));
            if t < series.last_t {
                continue; // WAL replay of pre-snapshot batches
            }
            series.first_t = series.first_t.min(t);
            series.last_t = t;
            sealed_push(
                &mut series.raw,
                AggPoint::raw(t, *v),
                self.config.raw_capacity,
            );
            for ring in &mut series.rollups {
                ring.push(t, *v);
            }
        }
    }

    /// Rewrites the snapshot atomically and truncates the WAL. No-op in
    /// memory-only mode.
    ///
    /// # Errors
    ///
    /// IO errors writing the snapshot.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let Some(wal) = &self.wal else {
            self.appends_since_snapshot = 0;
            return Ok(());
        };
        let snap = StoreSnapshotRef {
            version: STORE_VERSION,
            config: &self.config,
            series: self.series.iter().collect(),
        };
        let body = serde_json::to_string(&snap).expect("snapshot serializes");
        durable::write_atomic(&wal.path().with_file_name("store.json"), body.as_bytes())?;
        // WAL content is now covered by the snapshot.
        wal.truncate()?;
        self.appends_since_snapshot = 0;
        Ok(())
    }

    /// Folds every series of `other` into this store — the store-level
    /// shard merge. Series present only in `other` are adopted (rings
    /// re-trimmed to this store's capacities); series present in both
    /// merge ring-by-ring under the [`merge_points`] algebra, so
    /// min/max/sum/count of every bucket at every resolution equal
    /// what one store ingesting both streams would hold. Raw points at
    /// an equal time combine into one bucket. On buckets covered by
    /// both stores, `last` takes `other`'s value — fold shards oldest
    /// first (the merge tier folds in shard order) for a deterministic
    /// result.
    ///
    /// Merged data bypasses the WAL; call [`TsStore::flush`] to persist
    /// a merged durable store.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the stores' rollup steps differ — buckets of
    /// unequal widths have no lossless merge.
    pub fn merge(&mut self, other: &TsStore) -> std::io::Result<()> {
        let my_steps: Vec<u64> = self.config.rollups.iter().map(|r| r.step).collect();
        let their_steps: Vec<u64> = other.config.rollups.iter().map(|r| r.step).collect();
        if my_steps != their_steps {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("rollup steps differ: {my_steps:?} vs {their_steps:?}"),
            ));
        }
        for (id, theirs) in &other.series {
            match self.series.get_mut(id) {
                None => {
                    let mut adopted = theirs.clone();
                    adopted.trim(&self.config);
                    self.series.insert(id.clone(), adopted);
                }
                Some(mine) => mine.merge_from(theirs, &self.config),
            }
        }
        Ok(())
    }

    /// All series ids, sorted.
    pub fn series_ids(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Total append batches over this store handle's lifetime.
    pub fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// The newest time appended to `id` (None for an unknown series).
    pub fn last_t(&self, id: &str) -> Option<u64> {
        self.series.get(id).map(|s| s.last_t)
    }

    /// The first time ever appended to `id` (None for an unknown
    /// series) — the series' true start even after old points rotate
    /// out of every ring.
    pub fn first_t(&self, id: &str) -> Option<u64> {
        self.series
            .get(id)
            .map(|s| s.first_t)
            .filter(|t| *t != u64::MAX)
    }

    /// Available resolutions (step 1 = raw, then the rollup steps).
    pub fn resolutions(&self) -> Vec<u64> {
        let mut steps = vec![1];
        steps.extend(self.config.rollups.iter().map(|r| r.step));
        steps
    }

    /// Queries `[from, to]` at resolution `res` (a step from
    /// [`TsStore::resolutions`]; other values snap to the next coarser
    /// step). `None` auto-picks: the finest resolution whose retention
    /// still covers `from`, falling back to the coarsest. Returns only
    /// buckets real points landed in — never fabricates.
    pub fn query(&self, id: &str, from: u64, to: u64, res: Option<u64>) -> Vec<AggPoint> {
        let Some(series) = self.series.get(id) else {
            return Vec::new();
        };
        let step = self.resolution_for(id, from, res);
        if step == 1 {
            return series
                .raw
                .iter()
                .filter(|p| p.t >= from && p.t <= to)
                .cloned()
                .collect();
        }
        series
            .rollups
            .iter()
            .find(|r| r.step == step)
            .map(|r| r.query(from, to))
            .unwrap_or_default()
    }

    /// The last recorded value of `id` at or before time `t` (`None`
    /// for an unknown series or for `t` before the series' first
    /// point — a rollup bucket's span can start earlier than any data
    /// in it, and answering from one would leak later values backward
    /// in time). Raw points answer exactly; once `t` has rotated out
    /// of the raw ring the finest rollup still covering it answers
    /// with its closing `last` value — the best surviving
    /// approximation. This is how the flame tier resolves
    /// `?from=&to=` differential windows to per-site blocked counts.
    pub fn value_at(&self, id: &str, t: u64) -> Option<f64> {
        let series = self.series.get(id)?;
        if t < series.first_t {
            return None;
        }
        if let Some(p) = series.raw.iter().rev().find(|p| p.t <= t) {
            return Some(p.last);
        }
        series
            .rollups
            .iter()
            .find_map(|ring| ring.query(0, t).last().map(|b| b.last))
    }

    /// The most recent `n` raw values of `id`, oldest first (for
    /// sparklines and trend windows).
    pub fn recent(&self, id: &str, n: usize) -> Vec<(u64, f64)> {
        let Some(series) = self.series.get(id) else {
            return Vec::new();
        };
        let skip = series.raw.len().saturating_sub(n);
        series
            .raw
            .iter()
            .skip(skip)
            .map(|p| (p.t, p.last))
            .collect()
    }

    /// The resolution [`TsStore::query`] answers at for this request —
    /// exposed so an API layer can report which step a `res=None`
    /// query was served from. Unknown series answer 1.
    pub fn resolution_for(&self, id: &str, from: u64, res: Option<u64>) -> u64 {
        let Some(series) = self.series.get(id) else {
            return 1;
        };
        match res {
            Some(want) => self
                .resolutions()
                .into_iter()
                .find(|s| *s >= want)
                .unwrap_or_else(|| self.resolutions().last().copied().unwrap_or(1)),
            None => self.auto_resolution(series, from),
        }
    }

    fn auto_resolution(&self, series: &Series, from: u64) -> u64 {
        if series.raw.front().is_some_and(|p| p.t <= from) {
            return 1;
        }
        for ring in &series.rollups {
            if ring.oldest().is_some_and(|t| t <= from) {
                return ring.step;
            }
        }
        self.resolutions().last().copied().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(raw: usize, steps: &[(u64, usize)]) -> StoreConfig {
        StoreConfig {
            raw_capacity: raw,
            rollups: steps
                .iter()
                .map(|(step, capacity)| RollupSpec {
                    step: *step,
                    capacity: *capacity,
                })
                .collect(),
            snapshot_every: 0,
        }
    }

    #[test]
    fn raw_and_rollup_queries_agree_on_totals() {
        let mut s = TsStore::in_memory(cfg(1024, &[(4, 1024)]));
        for t in 0..40u64 {
            s.append(t, &[("x", t as f64)]).unwrap();
        }
        let raw = s.query("x", 0, 39, Some(1));
        assert_eq!(raw.len(), 40);
        let rolled = s.query("x", 0, 39, Some(4));
        assert_eq!(rolled.len(), 10);
        let raw_sum: f64 = raw.iter().map(|p| p.sum).sum();
        let rolled_sum: f64 = rolled.iter().map(|p| p.sum).sum();
        assert_eq!(raw_sum, rolled_sum);
        assert_eq!(rolled[0].min, 0.0);
        assert_eq!(rolled[0].max, 3.0);
        assert_eq!(rolled[0].last, 3.0);
        assert_eq!(rolled[0].mean(), 1.5);
    }

    #[test]
    fn auto_resolution_degrades_with_age() {
        // Raw keeps 8 points, step-4 rollup keeps everything.
        let mut s = TsStore::in_memory(cfg(8, &[(4, 1024)]));
        for t in 0..64u64 {
            s.append(t, &[("x", 1.0)]).unwrap();
        }
        // Recent range: raw resolution.
        let recent = s.query("x", 60, 63, None);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].count, 1);
        // Old range: raw ring no longer covers it → step-4 buckets.
        let old = s.query("x", 0, 63, None);
        assert!(old.iter().all(|p| p.t % 4 == 0));
        assert_eq!(old.len(), 16);
    }

    #[test]
    fn value_at_answers_raw_then_degrades_to_rollups() {
        let mut s = TsStore::in_memory(cfg(8, &[(4, 1024)]));
        for t in 0..64u64 {
            s.append(t, &[("x", t as f64 * 10.0)]).unwrap();
        }
        assert_eq!(s.value_at("x", 63), Some(630.0));
        assert_eq!(s.value_at("x", 60), Some(600.0), "exact from raw");
        assert_eq!(s.value_at("x", 100), Some(630.0), "future clamps to last");
        // t=30 rotated out of the 8-slot raw ring: the covering step-4
        // bucket [28,32) answers with its closing value.
        assert_eq!(s.value_at("x", 30), Some(310.0));
        assert_eq!(s.value_at("y", 5), None, "unknown series");
        let empty = TsStore::in_memory(cfg(8, &[]));
        assert_eq!(empty.value_at("x", 5), None);

        // A series starting late answers None before its first point,
        // even though its open rollup bucket's span reaches back to 0 —
        // later values must never leak backward in time.
        let mut late = TsStore::in_memory(cfg(8, &[(4, 1024)]));
        for t in 3..6u64 {
            late.append(t, &[("z", t as f64)]).unwrap();
        }
        assert_eq!(late.value_at("z", 2), None, "before first point");
        assert_eq!(late.value_at("z", 3), Some(3.0));
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let mut s = TsStore::in_memory(cfg(8, &[]));
        s.append(5, &[("x", 1.0)]).unwrap();
        let err = s.append(3, &[("x", 1.0)]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Equal time is fine (two points in the same cycle).
        s.append(5, &[("x", 2.0)]).unwrap();
        assert_eq!(s.query("x", 0, 10, Some(1)).len(), 2);
    }

    #[test]
    fn persistence_roundtrips_and_replays_wal() {
        let dir = std::env::temp_dir().join(format!("tsstore-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = cfg(64, &[(4, 64)]);
        config.snapshot_every = 4; // snapshot at t=3, WAL holds 4..6
        {
            let mut s = TsStore::open(&dir, config.clone()).unwrap();
            for t in 0..7u64 {
                s.append(t, &[("a", t as f64), ("b", -(t as f64))]).unwrap();
            }
        } // dropped without flush: WAL carries the tail
        let s = TsStore::open(&dir, config).unwrap();
        assert_eq!(s.query("a", 0, 10, Some(1)).len(), 7);
        assert_eq!(s.query("b", 0, 10, Some(1)).len(), 7);
        assert_eq!(s.query("a", 6, 6, Some(1))[0].last, 6.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_mismatched_rollup_steps() {
        let mut a = TsStore::in_memory(cfg(8, &[(4, 8)]));
        let b = TsStore::in_memory(cfg(8, &[(5, 8)]));
        assert_eq!(
            a.merge(&b).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn merge_trims_adopted_series_to_own_capacities() {
        let mut big = TsStore::in_memory(cfg(64, &[(4, 64)]));
        for t in 0..32u64 {
            big.append(t, &[("x", t as f64)]).unwrap();
        }
        let mut small = TsStore::in_memory(cfg(4, &[(4, 2)]));
        small.merge(&big).unwrap();
        assert_eq!(small.query("x", 0, u64::MAX, Some(1)).len(), 4);
        // 2 sealed buckets + the open one survive.
        assert_eq!(small.query("x", 0, u64::MAX, Some(4)).len(), 3);
        assert_eq!(small.last_t("x"), Some(31));
    }

    #[test]
    fn unknown_series_and_empty_ranges_are_empty() {
        let mut s = TsStore::in_memory(cfg(8, &[(4, 8)]));
        assert!(s.query("nope", 0, 100, None).is_empty());
        s.append(10, &[("x", 1.0)]).unwrap();
        assert!(s.query("x", 20, 30, Some(1)).is_empty());
        assert!(s.query("x", 0, 5, Some(4)).is_empty());
    }
}
