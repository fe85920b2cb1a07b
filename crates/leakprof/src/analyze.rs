//! Fleet-wide profile analysis: thresholding, aggregation, and RMS
//! impact ranking (paper Section V-A).

use std::collections::HashMap;

use gosim::{GoroutineProfile, GoroutineRecord};
use serde::{Deserialize, Serialize};

use crate::filter::{is_transient, VerdictSet};
use crate::signature::{blocked_op, BlockedOp};

/// Analysis configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Config {
    /// Criterion 1: minimum blocked goroutines at one source location in
    /// a single profile for the site to be marked suspicious. The paper
    /// uses 10 000 in production; simulations usually scale it down.
    pub threshold: u64,
    /// Criterion 2: run the AST transient-operation filter.
    pub ast_filter: bool,
    /// Report only the top-N sites by RMS impact.
    pub top_n: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            threshold: 10_000,
            ast_filter: true,
            top_n: 10,
        }
    }
}

/// Per-site aggregate across the whole profile set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteStats {
    /// The blocking operation (kind + source location).
    pub op: BlockedOp,
    /// Blocked-goroutine count per analyzed profile (instance name,
    /// count); instances with zero blocked goroutines at this site are
    /// included so that RMS reflects fleet-wide impact.
    pub per_instance: Vec<(String, u64)>,
    /// Total blocked goroutines across all profiles.
    pub total: u64,
    /// The largest single-instance count.
    pub max_instance: u64,
    /// Number of profiles in which the site exceeded the threshold.
    pub instances_over_threshold: usize,
    /// Root-mean-square of per-instance counts — the paper's impact
    /// metric, chosen because it highlights single-instance spikes.
    pub rms: f64,
    /// A representative blocked goroutine (from the most-affected
    /// instance), carrying the full stack for the report.
    pub representative: GoroutineRecord,
}

impl SiteStats {
    /// Mean per-instance count, provided for the RMS-vs-mean ablation.
    pub fn mean(&self) -> f64 {
        if self.per_instance.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.per_instance.len() as f64
    }
}

/// Root-mean-square of a count vector.
pub fn rms(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    (sum_sq / counts.len() as f64).sqrt()
}

/// Representative election as a join: the candidate with the larger
/// electing count wins; on equal counts the record that serializes
/// smaller wins. The tie-break makes election a commutative,
/// associative, idempotent fold over per-profile candidates, so any
/// shard partition of the fleet — merged in any order — elects the
/// same representative as one accumulator over everything. (Count
/// comparison alone would leave ties to ingestion/merge order, and a
/// sharded merge would diverge from the whole-fleet run byte-wise.)
fn rep_wins(count: u64, rep: &GoroutineRecord, incumbent: &(u64, GoroutineRecord)) -> bool {
    match count.cmp(&incumbent.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => {
            // Structurally equal records serialize identically, so the
            // strict `<` below is false — skip the serialization. This
            // is the common case when one site looks the same across a
            // homogeneous fleet, and it keeps tie-breaks off the
            // cycle's hot path.
            if *rep == incumbent.1 {
                return false;
            }
            serde_json::to_string(rep).unwrap_or_default()
                < serde_json::to_string(&incumbent.1).unwrap_or_default()
        }
    }
}

/// One profile's analysis: per blocking site, the blocked-goroutine
/// count and a representative goroutine. The unit of work that can be
/// computed away from the accumulator — off-thread, or in the push
/// tier's absorbers — and folded in later via
/// [`FleetAccumulator::merge_profile_sites`].
pub type ProfileSites = HashMap<BlockedOp, (u64, GoroutineRecord)>;

/// Analyzes one profile: groups channel-blocked goroutines by blocking
/// site and returns per-site counts plus a representative goroutine.
pub fn analyze_profile(profile: &GoroutineProfile) -> ProfileSites {
    let mut sites: ProfileSites = HashMap::new();
    for g in &profile.goroutines {
        if let Some(op) = blocked_op(g) {
            sites
                .entry(op)
                .and_modify(|(c, _)| *c += 1)
                .or_insert_with(|| (1, g.clone()));
        }
    }
    sites
}

/// Aggregates many profiles into ranked site statistics.
///
/// Implements the paper's pipeline: per-profile grouping, criterion-1
/// thresholding, optional criterion-2 filtering, then fleet-wide RMS
/// ranking. `verdicts` supplies the filter's per-file transient sites;
/// ops in uncovered files (all of them, for an empty set) are kept.
pub fn aggregate(
    profiles: &[GoroutineProfile],
    config: &Config,
    verdicts: &VerdictSet,
) -> Vec<SiteStats> {
    let mut acc = FleetAccumulator::new();
    for p in profiles {
        acc.ingest(p);
    }
    acc.ranked(config, verdicts)
}

/// Aggregates profiles using worker threads, mirroring the paper's
/// analysis box that chews through ~200K profiles in under a minute.
/// Per-profile grouping fans out across `threads`; the final aggregation
/// is sequential.
pub fn aggregate_parallel(
    profiles: &[GoroutineProfile],
    config: &Config,
    verdicts: &VerdictSet,
    threads: usize,
) -> Vec<SiteStats> {
    if threads <= 1 || profiles.len() < 2 {
        return aggregate(profiles, config, verdicts);
    }
    // Parallel phase: per-profile site maps.
    let chunk = profiles.len().div_ceil(threads);
    type SiteMap = HashMap<BlockedOp, (u64, GoroutineRecord)>;
    let maps: Vec<Vec<(String, SiteMap)>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for part in profiles.chunks(chunk) {
            handles.push(s.spawn(move || {
                part.iter()
                    .map(|p| (p.instance.clone(), analyze_profile(p)))
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis worker panicked"))
            .collect()
    });

    // Sequential merge, then reuse the streaming accumulator's ranking
    // logic by replaying the per-profile site maps in profile order.
    let mut acc = FleetAccumulator::new();
    for (p, group) in profiles.iter().zip(maps.iter().flatten()) {
        let (instance, sites) = group;
        debug_assert_eq!(&p.instance, instance);
        acc.merge_profile_sites(instance, sites, p.len() as u64);
    }
    acc.ranked(config, verdicts)
}

/// Builds a [`FleetAccumulator`] over `profiles` using up to `threads`
/// worker threads, **exactly** equivalent to ingesting the profiles
/// sequentially in slice order: the slice is split into contiguous
/// chunks, each chunk folded into its own accumulator off-thread, and
/// the per-chunk accumulators [`FleetAccumulator::merge`]d back in
/// chunk order. Counts are sums and representative election is an
/// order-independent join, so the resulting snapshot is byte-identical
/// to the sequential fold — this is what lets the daemon's push tier
/// absorb a 10K-instance cycle on worker shards and still land in the
/// same ranking as a pull-only daemon.
pub fn fold_profiles(profiles: &[GoroutineProfile], threads: usize) -> FleetAccumulator {
    let mut acc = FleetAccumulator::new();
    if threads <= 1 || profiles.len() < 2 {
        for p in profiles {
            acc.ingest(p);
        }
        return acc;
    }
    let chunk = profiles.len().div_ceil(threads);
    let parts: Vec<FleetAccumulator> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for part in profiles.chunks(chunk) {
            handles.push(s.spawn(move || {
                let mut shard = FleetAccumulator::new();
                for p in part {
                    shard.ingest(p);
                }
                shard
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("fold worker panicked"))
            .collect()
    });
    for part in &parts {
        acc.merge(part);
    }
    acc
}

/// Incremental fleet-wide aggregation for streaming collection.
///
/// Holds the same per-site accumulators [`aggregate`] builds, but accepts
/// profiles one at a time so a collection daemon can ingest each scrape
/// as it lands — per-cycle cost is O(goroutines in the new profiles),
/// not O(all profiles ever seen). [`FleetAccumulator::ranked`] can be
/// called at any point (it does not consume the accumulator) and yields
/// exactly what [`aggregate`] would return for the same profiles in the
/// same ingestion order.
#[derive(Debug, Default, Clone)]
pub struct FleetAccumulator {
    /// site -> per-instance blocked counts.
    acc: HashMap<BlockedOp, HashMap<String, u64>>,
    /// site -> (best single-profile count, representative goroutine).
    reps: HashMap<BlockedOp, (u64, GoroutineRecord)>,
    /// Instance name of every ingested profile, in ingestion order.
    instances: Vec<String>,
    /// Derived index over `instances`: how many ingested profiles bore
    /// each name. Kept in lockstep so [`FleetAccumulator::ranked`] can
    /// weigh a name once per occurrence without rescanning the
    /// ever-growing `instances` list on every ranking.
    occ: HashMap<String, u64>,
    /// Total goroutines inspected (blocked or not).
    goroutines_seen: u64,
}

/// Current [`AccumulatorSnapshot`] format version. Bump when the layout
/// changes; [`FleetAccumulator::from_snapshot`] rejects other versions so
/// a daemon never silently recovers from an incompatible file.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One site's accumulated state, as persisted in a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSnapshot {
    /// The blocking operation (the grouping key).
    pub op: BlockedOp,
    /// Per-instance blocked counts, sorted by instance name.
    pub per_instance: Vec<(String, u64)>,
    /// The single-profile count that elected the representative.
    pub rep_count: u64,
    /// The representative goroutine carried into reports.
    pub representative: GoroutineRecord,
}

/// A versioned, serialized [`FleetAccumulator`]: everything needed to
/// resume streaming analysis after a daemon restart, or to merge the
/// state of several collector shards into one fleet-wide accumulator.
///
/// The layout is fully deterministic (sites sorted by op, per-instance
/// vectors sorted by name), so serializing the same accumulator twice
/// yields byte-identical JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccumulatorSnapshot {
    /// Format version; see [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// Per-site accumulated state, sorted by op.
    pub sites: Vec<SiteSnapshot>,
    /// Instance name of every ingested profile, in ingestion order
    /// (repeats preserved — ranking depends on it).
    pub instances: Vec<String>,
    /// Total goroutines inspected.
    pub goroutines_seen: u64,
}

impl FleetAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes the accumulator into a versioned, deterministic
    /// snapshot. [`FleetAccumulator::from_snapshot`] restores a state
    /// whose [`FleetAccumulator::ranked`] output is identical.
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        let mut sites: Vec<SiteSnapshot> = self
            .acc
            .iter()
            .map(|(op, by_instance)| {
                let mut per_instance: Vec<(String, u64)> =
                    by_instance.iter().map(|(k, v)| (k.clone(), *v)).collect();
                per_instance.sort();
                let (rep_count, representative) =
                    self.reps.get(op).cloned().expect("every site has a rep");
                SiteSnapshot {
                    op: op.clone(),
                    per_instance,
                    rep_count,
                    representative,
                }
            })
            .collect();
        sites.sort_by(|a, b| a.op.cmp(&b.op));
        AccumulatorSnapshot {
            version: SNAPSHOT_VERSION,
            sites,
            instances: self.instances.clone(),
            goroutines_seen: self.goroutines_seen,
        }
    }

    /// Restores an accumulator from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's version is not
    /// [`SNAPSHOT_VERSION`].
    pub fn from_snapshot(snap: &AccumulatorSnapshot) -> Result<FleetAccumulator, String> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(format!(
                "unsupported accumulator snapshot version {} (expected {})",
                snap.version, SNAPSHOT_VERSION
            ));
        }
        let mut acc = FleetAccumulator::new();
        for site in &snap.sites {
            acc.acc
                .insert(site.op.clone(), site.per_instance.iter().cloned().collect());
            acc.reps.insert(
                site.op.clone(),
                (site.rep_count, site.representative.clone()),
            );
        }
        acc.instances = snap.instances.clone();
        for name in &snap.instances {
            match acc.occ.get_mut(name) {
                Some(n) => *n += 1,
                None => {
                    acc.occ.insert(name.clone(), 1);
                }
            }
        }
        acc.goroutines_seen = snap.goroutines_seen;
        Ok(acc)
    }

    /// Merges another accumulator into this one, as the sharded-collection
    /// merge tier does with per-shard state: per-instance counts add,
    /// representatives are re-elected under [`rep_wins`] (count, then a
    /// deterministic content tie-break), and the other shard's profiles
    /// append in its ingestion order. Because counts are a sum and
    /// election is a semilattice join, the *ranking* of the merged
    /// accumulator is independent of how the fleet was partitioned into
    /// shards and of the order shards are merged in.
    pub fn merge(&mut self, other: &FleetAccumulator) {
        for (op, by_instance) in &other.acc {
            let mine = self.acc.entry(op.clone()).or_default();
            for (instance, count) in by_instance {
                *mine.entry(instance.clone()).or_insert(0) += count;
            }
        }
        for (op, (count, rep)) in &other.reps {
            let entry = self
                .reps
                .entry(op.clone())
                .or_insert_with(|| (*count, rep.clone()));
            if rep_wins(*count, rep, entry) {
                *entry = (*count, rep.clone());
            }
        }
        for (instance, n) in &other.occ {
            match self.occ.get_mut(instance) {
                Some(mine) => *mine += n,
                None => {
                    self.occ.insert(instance.clone(), *n);
                }
            }
        }
        self.instances.extend(other.instances.iter().cloned());
        self.goroutines_seen += other.goroutines_seen;
    }

    /// Ingests one profile, updating per-site counts and representatives.
    pub fn ingest(&mut self, profile: &GoroutineProfile) {
        let sites = analyze_profile(profile);
        self.merge_profile_sites(&profile.instance, &sites, profile.len() as u64);
    }

    /// Merges an already-analyzed profile — the [`analyze_profile`]
    /// output for a profile of `goroutines` total goroutines — exactly
    /// as [`FleetAccumulator::ingest`] would have: `ingest` is
    /// literally `analyze_profile` + this call. [`aggregate_parallel`]
    /// uses it to run the per-profile analysis off-thread, and the
    /// collector's push tier uses it to absorb that analysis into its
    /// shard workers as profiles arrive, leaving the daemon's cycle
    /// only the cheap count merges.
    pub fn merge_profile_sites(&mut self, instance: &str, sites: &ProfileSites, goroutines: u64) {
        for (op, (count, rep)) in sites {
            // The steady state — site and instance already known — is
            // the allocation-free arm of each match; only first sight
            // of a site or an instance clones the key.
            match self.acc.get_mut(op) {
                Some(by_instance) => match by_instance.get_mut(instance) {
                    Some(c) => *c += count,
                    None => {
                        by_instance.insert(instance.to_string(), *count);
                    }
                },
                None => {
                    let mut by_instance = HashMap::new();
                    by_instance.insert(instance.to_string(), *count);
                    self.acc.insert(op.clone(), by_instance);
                }
            }
            match self.reps.get_mut(op) {
                Some(entry) => {
                    if rep_wins(*count, rep, entry) {
                        *entry = (*count, rep.clone());
                    }
                }
                None => {
                    self.reps.insert(op.clone(), (*count, rep.clone()));
                }
            }
        }
        match self.occ.get_mut(instance) {
            Some(n) => *n += 1,
            None => {
                self.occ.insert(instance.to_string(), 1);
            }
        }
        self.instances.push(instance.to_string());
        self.goroutines_seen += goroutines;
    }

    /// Number of profiles ingested so far.
    pub fn profiles_ingested(&self) -> usize {
        self.instances.len()
    }

    /// Total goroutines inspected across all ingested profiles.
    pub fn goroutines_seen(&self) -> u64 {
        self.goroutines_seen
    }

    /// Sum of the raw per-instance cumulative counts for `op`, with no
    /// occurrence weighting (contrast [`FleetAccumulator::ranked`],
    /// which weighs each instance's count by how many profiles it
    /// contributed). Every cycle re-ingests each site's current blocked
    /// population, so across cycles this sum's first difference is that
    /// population — the series differential flamegraphs subtract.
    pub fn raw_site_total(&self, op: &BlockedOp) -> u64 {
        self.acc.get(op).map_or(0, |m| m.values().sum())
    }

    /// Ranks the accumulated sites: criterion-1 thresholding, optional
    /// criterion-2 filtering, then fleet-wide RMS ordering. Does not
    /// consume the accumulator, so a daemon can re-rank every cycle.
    pub fn ranked(&self, config: &Config, verdicts: &VerdictSet) -> Vec<SiteStats> {
        let mut out = Vec::new();
        // Distinct instance names, sorted once (on the first suspect
        // site) and shared by every suspect site. A name ingested k
        // times weighs its cumulative count k-fold — the same totals
        // as walking the full `instances` list and summing duplicates,
        // without rescanning that ever-growing list per site per
        // ranking.
        let mut names: Option<Vec<&String>> = None;
        for (op, by_instance) in &self.acc {
            let over = by_instance
                .values()
                .filter(|&&c| c >= config.threshold)
                .count();
            if over == 0 {
                continue;
            }
            if config.ast_filter && is_transient(verdicts, op) {
                continue;
            }
            let names = names.get_or_insert_with(|| {
                let mut names: Vec<&String> = self.occ.keys().collect();
                names.sort();
                names
            });
            let per_instance: Vec<(String, u64)> = names
                .iter()
                .map(|&name| {
                    let count = by_instance.get(name).copied().unwrap_or(0);
                    (name.clone(), self.occ[name] * count)
                })
                .collect();
            let counts: Vec<u64> = per_instance.iter().map(|(_, c)| *c).collect();
            let total: u64 = counts.iter().sum();
            let max_instance = counts.iter().copied().max().unwrap_or(0);
            out.push(SiteStats {
                rms: rms(&counts),
                representative: self
                    .reps
                    .get(op)
                    .map(|(_, r)| r.clone())
                    .expect("site has a rep"),
                op: op.clone(),
                per_instance,
                total,
                max_instance,
                instances_over_threshold: over,
            });
        }
        out.sort_by(|a, b| {
            b.rms
                .partial_cmp(&a.rms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.op.cmp(&b.op))
        });
        out.truncate(config.top_n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::ChanOpKind;
    use gosim::{Frame, Gid, GoStatus, Loc};

    fn blocked_rec(gid: u64, file: &str, line: u32, kind: ChanOpKind) -> GoroutineRecord {
        let discriminator = match kind {
            ChanOpKind::Send => "runtime.chansend1",
            ChanOpKind::Recv => "runtime.chanrecv1",
            ChanOpKind::Select => "runtime.selectgo",
            ChanOpKind::Race => "runtime.racecheck",
        };
        GoroutineRecord {
            gid: Gid(gid),
            name: "pkg.f$1".into(),
            status: GoStatus::ChanSend { nil_chan: false },
            stack: vec![
                Frame::runtime("runtime.gopark"),
                Frame::runtime(discriminator),
                Frame::new("pkg.f$1", Loc::new(file, line)),
            ],
            created_by: Frame::new("pkg.f", Loc::new(file, 1)),
            wait_ticks: 100,
            retained_bytes: 8192,
        }
    }

    fn profile(instance: &str, recs: Vec<GoroutineRecord>) -> GoroutineProfile {
        GoroutineProfile {
            instance: instance.into(),
            captured_at: 0,
            goroutines: recs,
        }
    }

    #[test]
    fn threshold_suppresses_small_sites() {
        let p = profile(
            "i0",
            (0..5)
                .map(|i| blocked_rec(i, "a.go", 10, ChanOpKind::Send))
                .collect(),
        );
        let cfg = Config {
            threshold: 10,
            ast_filter: false,
            top_n: 10,
        };
        assert!(aggregate(std::slice::from_ref(&p), &cfg, &VerdictSet::new()).is_empty());
        let cfg2 = Config {
            threshold: 5,
            ..cfg
        };
        assert_eq!(aggregate(&[p], &cfg2, &VerdictSet::new()).len(), 1);
    }

    #[test]
    fn rms_highlights_single_instance_spikes() {
        // Site A: 100 blocked on one instance out of ten.
        // Site B: 10 blocked on each of ten instances.
        // Same total; RMS must rank the spike (A) higher, mean ranks them
        // equal — the paper's stated reason for choosing RMS.
        let mut profiles = Vec::new();
        for i in 0..10 {
            let mut recs = Vec::new();
            if i == 0 {
                for g in 0..100 {
                    recs.push(blocked_rec(g, "spike.go", 5, ChanOpKind::Send));
                }
            }
            for g in 0..10 {
                recs.push(blocked_rec(1000 + g, "flat.go", 7, ChanOpKind::Recv));
            }
            profiles.push(profile(&format!("i{i}"), recs));
        }
        let cfg = Config {
            threshold: 10,
            ast_filter: false,
            top_n: 10,
        };
        let stats = aggregate(&profiles, &cfg, &VerdictSet::new());
        assert_eq!(stats.len(), 2);
        assert_eq!(
            &*stats[0].op.loc.file, "spike.go",
            "spike ranks first by RMS"
        );
        assert!(stats[0].rms > stats[1].rms);
        assert!(
            (stats[0].mean() - stats[1].mean()).abs() < 1e-9,
            "means are equal"
        );
    }

    #[test]
    fn per_instance_includes_zeroes() {
        let p1 = profile(
            "a",
            (0..20)
                .map(|i| blocked_rec(i, "x.go", 3, ChanOpKind::Send))
                .collect(),
        );
        let p2 = profile("b", vec![]);
        let cfg = Config {
            threshold: 10,
            ast_filter: false,
            top_n: 10,
        };
        let stats = aggregate(&[p1, p2], &cfg, &VerdictSet::new());
        assert_eq!(stats[0].per_instance.len(), 2);
        assert_eq!(stats[0].total, 20);
        assert_eq!(stats[0].max_instance, 20);
        let expected = rms(&[20, 0]);
        assert!((stats[0].rms - expected).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut profiles = Vec::new();
        for i in 0..32 {
            let recs = (0..(i % 7 + 12))
                .map(|g| {
                    blocked_rec(
                        g,
                        if i % 2 == 0 { "even.go" } else { "odd.go" },
                        4,
                        ChanOpKind::Select,
                    )
                })
                .collect();
            profiles.push(profile(&format!("i{i}"), recs));
        }
        let cfg = Config {
            threshold: 12,
            ast_filter: false,
            top_n: 10,
        };
        let seq = aggregate(&profiles, &cfg, &VerdictSet::new());
        let par = aggregate_parallel(&profiles, &cfg, &VerdictSet::new(), 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.total, b.total);
            assert!((a.rms - b.rms).abs() < 1e-9);
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_ranking_bytes() {
        let mut acc = FleetAccumulator::new();
        for i in 0..6 {
            let recs = (0..(20 + i * 3))
                .map(|g| blocked_rec(g, "hot.go", 9, ChanOpKind::Send))
                .chain((0..7).map(|g| blocked_rec(900 + g, "cold.go", 2, ChanOpKind::Recv)))
                .collect();
            acc.ingest(&profile(&format!("i{i}"), recs));
        }
        let snap = acc.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        let restored = FleetAccumulator::from_snapshot(&snap).unwrap();
        let cfg = Config {
            threshold: 5,
            ast_filter: false,
            top_n: 10,
        };
        let a = acc.ranked(&cfg, &VerdictSet::new());
        let b = restored.ranked(&cfg, &VerdictSet::new());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "snapshot round-trip changed the ranking"
        );
        assert_eq!(restored.profiles_ingested(), acc.profiles_ingested());
        assert_eq!(restored.goroutines_seen(), acc.goroutines_seen());
        // Determinism: serializing the same state twice is byte-identical.
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&restored.snapshot()).unwrap()
        );
    }

    #[test]
    fn snapshot_rejects_unknown_versions() {
        let mut snap = FleetAccumulator::new().snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(FleetAccumulator::from_snapshot(&snap).is_err());
    }

    #[test]
    fn merge_matches_single_accumulator_over_same_profiles() {
        let profiles: Vec<GoroutineProfile> = (0..8)
            .map(|i| {
                let recs = (0..(10 + i))
                    .map(|g| blocked_rec(g, "m.go", 4, ChanOpKind::Select))
                    .collect();
                profile(&format!("shard-i{i}"), recs)
            })
            .collect();
        // One accumulator over everything...
        let mut whole = FleetAccumulator::new();
        for p in &profiles {
            whole.ingest(p);
        }
        // ...vs two shards merged (same overall ingestion order).
        let (left, right) = profiles.split_at(5);
        let mut a = FleetAccumulator::new();
        for p in left {
            a.ingest(p);
        }
        let mut b = FleetAccumulator::new();
        for p in right {
            b.ingest(p);
        }
        a.merge(&b);
        let cfg = Config {
            threshold: 10,
            ast_filter: false,
            top_n: 10,
        };
        assert_eq!(
            serde_json::to_string(&whole.ranked(&cfg, &VerdictSet::new())).unwrap(),
            serde_json::to_string(&a.ranked(&cfg, &VerdictSet::new())).unwrap(),
            "merged shards diverged from a single accumulator"
        );
        assert_eq!(a.profiles_ingested(), whole.profiles_ingested());
        assert_eq!(a.goroutines_seen(), whole.goroutines_seen());
    }

    #[test]
    fn fold_profiles_is_byte_identical_to_sequential_ingest() {
        let profiles: Vec<GoroutineProfile> = (0..37)
            .map(|i| {
                let recs = (0..(5 + i % 11))
                    .map(|g| blocked_rec(g, "fold.go", 3 + (i % 4) as u32, ChanOpKind::Send))
                    .chain(
                        (0..(i % 3)).map(|g| blocked_rec(500 + g, "alt.go", 8, ChanOpKind::Recv)),
                    )
                    .collect();
                profile(&format!("pushed-{i:03}"), recs)
            })
            .collect();
        let sequential = fold_profiles(&profiles, 1);
        for threads in [2, 3, 4, 8, 64] {
            let folded = fold_profiles(&profiles, threads);
            assert_eq!(
                serde_json::to_string(&sequential.snapshot()).unwrap(),
                serde_json::to_string(&folded.snapshot()).unwrap(),
                "parallel fold with {threads} threads diverged from sequential ingest"
            );
        }
    }

    #[test]
    fn rms_of_empty_and_single() {
        assert_eq!(rms(&[]), 0.0);
        assert!((rms(&[4]) - 4.0).abs() < 1e-12);
        assert!((rms(&[3, 4]) - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
