//! Offline merge tier: fold N shard daemons' state dirs into one
//! fleet-wide state (`leakprofd merge`).
//!
//! Each shard's state dir is recovered exactly the way the daemon
//! itself would (snapshot + WAL replay), so the fold sees each shard's
//! *current* analysis state, not just its last checkpoint. The
//! accumulator merge is order-independent ([`FleetAccumulator::merge`]
//! is commutative and associative), so the merged ranking over any
//! partition of the fleet is byte-identical to the ranking a single
//! whole-fleet daemon computes. Ledgers are deduplicated by fingerprint
//! ([`ReportLedger::merge_entry`] conflict rules) and telemetry stores
//! are folded bucket-by-bucket ([`TsStore::merge`]), oldest shard
//! first for a deterministic result.
//!
//! Every fold in the collector — this one, the live
//! [`crate::FleetAggregator`], and `leakprofd status --addr …` — walks
//! its inputs in the one order [`fold_order`] defines, and the two that
//! fold live `/api/snapshot` documents do it through [`fold_snapshot`].

use std::path::{Path, PathBuf};

use leakprof::FleetAccumulator;
use shardmap::ShardIdentity;
use timeseries::{StoreConfig, TsStore};

use crate::ledger::{LedgerConfig, ReportLedger};
use crate::shard::{read_tag, ApiSnapshot};
use crate::snapshot::{DaemonSnapshot, SnapshotStore, DAEMON_SNAPSHOT_VERSION};
use crate::stats::HealthCounters;

/// Knobs for loading shard state dirs: the same store layouts the
/// daemons were configured with.
#[derive(Debug, Clone, Default)]
pub struct MergeConfig {
    /// Telemetry store layout the shard daemons used (`<dir>/ts`).
    pub ts: StoreConfig,
    /// Ledger tuning for the merged ledger.
    pub ledger: LedgerConfig,
}

/// One shard daemon's recovered state.
pub struct ShardState {
    /// The state dir this was loaded from.
    pub dir: PathBuf,
    /// The shard tag found in the dir (`None` = unsharded daemon).
    pub identity: Option<ShardIdentity>,
    /// The cycle the shard had completed (snapshot + WAL replay).
    pub cycle: u64,
    /// The shard's analysis accumulator at that cycle.
    pub acc: FleetAccumulator,
    /// The shard's lifetime health counters.
    pub health: HealthCounters,
    /// The shard's report ledger (read-only copy).
    pub ledger: ReportLedger,
    /// The shard's telemetry store (read-only copy).
    pub ts: TsStore,
}

/// The sort key of the one fold order every merge tier uses: shard
/// index, unsharded last, ties broken by `tiebreak` (the state dir or
/// the peer address).
pub fn fold_order<K: Ord>(shard: Option<&ShardIdentity>, tiebreak: K) -> (u32, K) {
    (shard.map_or(u32::MAX, |id| id.shard), tiebreak)
}

/// Folds one live `/api/snapshot` document into a merged accumulator
/// and in-memory ledger; callers add documents in [`fold_order`]. Its
/// ledger entries always merge, its accumulator only if it restores.
///
/// # Errors
///
/// Why the document's accumulator did not restore.
pub fn fold_snapshot(
    acc: &mut FleetAccumulator,
    ledger: &mut ReportLedger,
    snap: &ApiSnapshot,
) -> Result<(), String> {
    // In-memory ledger: merging entries cannot fail to persist.
    let _ = ledger.merge_entries(snap.ledger.iter());
    acc.merge(&FleetAccumulator::from_snapshot(&snap.acc)?);
    Ok(())
}

/// Recovers one shard's state dir exactly like a restarting daemon
/// would: snapshot, then WAL replay on top.
///
/// # Errors
///
/// IO errors, or [`std::io::ErrorKind::InvalidData`] for corrupt or
/// version-mismatched state.
pub fn load_shard_state(dir: &Path, config: &MergeConfig) -> std::io::Result<ShardState> {
    let identity = read_tag(dir)?;
    let recovery = SnapshotStore::open(dir)?.recover()?;
    let (acc, health) = recovery.replay()?;
    let cycle = recovery.last_cycle();
    let ledger = ReportLedger::open(dir.join("ledger.json"), config.ledger.clone())?;
    let ts = TsStore::open(dir.join("ts"), config.ts.clone())?;
    Ok(ShardState {
        dir: dir.to_path_buf(),
        identity,
        cycle,
        acc,
        health,
        ledger,
        ts,
    })
}

/// Compact per-shard provenance carried on a [`MergedFleet`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ShardSummary {
    /// The state dir the shard was loaded from.
    pub dir: String,
    /// The shard tag, if any.
    pub shard: Option<ShardIdentity>,
    /// The cycle the shard had completed.
    pub cycle: u64,
    /// Profiles the shard had ingested.
    pub profiles_ingested: usize,
}

/// The fleet-wide fold of N shard states.
pub struct MergedFleet {
    /// The merged accumulator — rank it with
    /// [`leakprof::LeakProf::report_from_accumulator`].
    pub acc: FleetAccumulator,
    /// Summed health counters (every shard's scrapes really happened).
    pub health: HealthCounters,
    /// The deduplicated fleet ledger (in-memory; persisted by
    /// [`write_merged`]).
    pub ledger: ReportLedger,
    /// The merged telemetry store (in-memory; persisted by
    /// [`write_merged`]).
    pub ts: TsStore,
    /// The newest cycle any shard had completed.
    pub cycle: u64,
    /// Per-shard provenance, in fold order.
    pub shards: Vec<ShardSummary>,
}

/// Folds shard states into one fleet-wide state, in [`fold_order`]
/// with ties by dir. (The accumulator and ledger merges are
/// order-independent anyway; the ts fold is where order is observable,
/// via open-bucket `last` values on series shared across shards.)
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] if shard telemetry
/// stores have mismatched rollup layouts.
pub fn merge_states(
    mut states: Vec<ShardState>,
    config: &MergeConfig,
) -> std::io::Result<MergedFleet> {
    states.sort_by(|a, b| {
        fold_order(a.identity.as_ref(), &a.dir).cmp(&fold_order(b.identity.as_ref(), &b.dir))
    });
    let mut acc = FleetAccumulator::new();
    let mut health = HealthCounters::default();
    let mut ledger = ReportLedger::new(config.ledger.clone());
    let mut ts = TsStore::in_memory(config.ts.clone());
    let mut cycle = 0;
    let mut shards = Vec::with_capacity(states.len());
    for s in &states {
        acc.merge(&s.acc);
        health.cycles = health.cycles.max(s.health.cycles);
        health.scrapes_ok += s.health.scrapes_ok;
        health.scrapes_failed += s.health.scrapes_failed;
        health.scrapes_skipped += s.health.scrapes_skipped;
        health.retries += s.health.retries;
        health.latency.merge(&s.health.latency);
        ledger.merge_from(&s.ledger)?;
        ts.merge(&s.ts)?;
        cycle = cycle.max(s.cycle);
        shards.push(ShardSummary {
            dir: s.dir.display().to_string(),
            shard: s.identity.clone(),
            cycle: s.cycle,
            profiles_ingested: s.acc.profiles_ingested(),
        });
    }
    Ok(MergedFleet {
        acc,
        health,
        ledger,
        ts,
        cycle,
        shards,
    })
}

/// Loads and folds N state dirs in one call.
///
/// # Errors
///
/// Propagates [`load_shard_state`] and [`merge_states`] errors.
pub fn merge_state_dirs(dirs: &[PathBuf], config: &MergeConfig) -> std::io::Result<MergedFleet> {
    let states = dirs
        .iter()
        .map(|d| load_shard_state(d, config))
        .collect::<std::io::Result<Vec<_>>>()?;
    merge_states(states, config)
}

/// Persists a merged fleet as a regular daemon state dir: snapshot (no
/// WAL — the fold is already checkpointed), `ledger.json`, the merged
/// `ts` store, and `flame.txt` — the merged blocked-goroutine flame in
/// collapsed folded-stack form, ready for `inferno`/speedscope or a
/// byte-compare against any live daemon's `/flame.txt`. The result is
/// loadable by [`load_shard_state`], an unsharded `Daemon`, or
/// `leakprofd backtest`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_merged(
    out: &Path,
    merged: &mut MergedFleet,
    config: &MergeConfig,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let store = SnapshotStore::open(out)?;
    let snap = merged.acc.snapshot();
    store.commit_snapshot(&DaemonSnapshot {
        version: DAEMON_SNAPSHOT_VERSION,
        cycle: merged.cycle,
        acc: snap.clone(),
        health: merged.health.clone(),
    })?;
    let flame = crate::flame::build_flame(&snap, crate::flame::live_weight);
    durable::write_atomic(&out.join("flame.txt"), flame.to_folded().as_bytes())?;
    let mut out_ledger = ReportLedger::open(out.join("ledger.json"), config.ledger.clone())?;
    out_ledger.merge_from(&merged.ledger)?;
    let mut out_ts = TsStore::open(out.join("ts"), config.ts.clone())?;
    out_ts.merge(&merged.ts)?;
    out_ts.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};
    use crate::demo::DemoFleet;
    use crate::shard::ShardSpec;
    use leakprof::LeakProf;
    use shardmap::ShardMap;

    fn lp() -> LeakProf {
        LeakProf::new(leakprof::Config {
            threshold: 1,
            ast_filter: false,
            top_n: 10,
        })
    }

    #[test]
    fn merged_state_dirs_match_the_whole_fleet_daemon() {
        let root = std::env::temp_dir().join(format!("leakprofd-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let demo = DemoFleet::build(10, 2, 7);
        let server = demo.hub.serve("127.0.0.1:0", 4).unwrap();
        let targets = demo.targets(server.addr());
        let map = ShardMap::new(3);
        let mut dirs = Vec::new();
        for i in 0..3 {
            let dir = root.join(format!("shard{i}"));
            let config = DaemonConfig {
                state_dir: Some(dir.clone()),
                snapshot_every: 2,
                shard: Some(ShardSpec {
                    map: map.clone(),
                    index: i,
                }),
                ..DaemonConfig::default()
            };
            let mut d = Daemon::new(config, lp(), targets.clone()).unwrap();
            for _ in 0..3 {
                d.run_cycle();
            }
            d.commit_snapshot().unwrap();
            d.flush_telemetry().unwrap();
            dirs.push(dir);
        }
        let mut whole = Daemon::new(DaemonConfig::default(), lp(), targets).unwrap();
        for _ in 0..3 {
            whole.run_cycle();
        }

        let config = MergeConfig::default();
        let mut merged = merge_state_dirs(&dirs, &config).unwrap();
        assert_eq!(merged.cycle, 3);
        assert_eq!(merged.shards.len(), 3);
        assert_eq!(
            merged.acc.profiles_ingested(),
            whole.accumulator().profiles_ingested()
        );
        let merged_report = lp().report_from_accumulator(&merged.acc);
        let whole_report = lp().report_from_accumulator(whole.accumulator());
        assert_eq!(
            serde_json::to_string(&merged_report).unwrap(),
            serde_json::to_string(&whole_report).unwrap(),
            "3-shard merge must be byte-identical to the whole-fleet daemon"
        );

        // Round-trip: the merged state dir reloads to the same ranking.
        let out = root.join("merged");
        write_merged(&out, &mut merged, &config).unwrap();
        let reloaded = load_shard_state(&out, &config).unwrap();
        assert_eq!(reloaded.cycle, 3);
        let reloaded_report = lp().report_from_accumulator(&reloaded.acc);
        assert_eq!(
            serde_json::to_string(&reloaded_report).unwrap(),
            serde_json::to_string(&whole_report).unwrap()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
