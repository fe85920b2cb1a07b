//! Shard identity for collector daemons: slice filtering, state-dir
//! tagging, and the `/api/snapshot` wire document the merge tier folds.
//!
//! A sharded daemon is an ordinary [`crate::Daemon`] whose targets are
//! filtered to the slice a [`shardmap::ShardMap`] assigns it. Its state
//! dir is tagged with the [`ShardIdentity`] it collects under
//! (`shard.json`), so a daemon refuses to resume from state another
//! seat wrote — mixing two shards' accumulators would double-count
//! their overlap-free slices into nonsense.

use std::path::Path;

use leakprof::AccumulatorSnapshot;
use serde::{Deserialize, Serialize};
use shardmap::{ShardIdentity, ShardMap};

use crate::ledger::LedgerEntry;
use crate::scrape::ScrapeTarget;

/// Name of the shard-identity tag file inside a state dir.
pub const SHARD_TAG_FILE: &str = "shard.json";

/// Version of the [`ApiSnapshot`] wire format.
pub const API_SNAPSHOT_VERSION: u32 = 1;

/// A daemon's shard assignment: the map and this daemon's seat in it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The fleet-wide assignment map (identical on every shard).
    pub map: ShardMap,
    /// This daemon's seat index.
    pub index: u32,
}

impl ShardSpec {
    /// This daemon's identity under the map.
    pub fn identity(&self) -> ShardIdentity {
        self.map.identity(self.index)
    }

    /// Keeps only the targets this shard owns. Deterministic: every
    /// shard evaluating the same map over the same fleet computes
    /// disjoint slices whose union is the whole fleet.
    pub fn filter_targets(&self, targets: Vec<ScrapeTarget>) -> Vec<ScrapeTarget> {
        targets
            .into_iter()
            .filter(|t| self.map.owns(self.index, &t.instance))
            .collect()
    }
}

/// The live per-shard state document served at `/api/snapshot`: what a
/// merge tier needs to fold this daemon into a fleet-wide view. The
/// accumulator snapshot is the same deterministic layout the durable
/// snapshot persists, so folding N of these is byte-equivalent to
/// folding N state dirs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApiSnapshot {
    /// Wire format version; see [`API_SNAPSHOT_VERSION`].
    pub version: u32,
    /// Completed scrape cycles on this daemon.
    pub cycle: u64,
    /// Shard identity (`None` for an unsharded whole-fleet daemon).
    pub shard: Option<ShardIdentity>,
    /// Targets this daemon scrapes (its slice size).
    pub targets: usize,
    /// The streaming accumulator, in snapshot form.
    pub acc: AccumulatorSnapshot,
    /// The report ledger's entries, for fleet-wide deduplication.
    pub ledger: Vec<LedgerEntry>,
}

/// Writes the shard tag into `dir` atomically.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_tag(dir: &Path, identity: &ShardIdentity) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(identity).expect("identity serializes");
    durable::write_atomic(&dir.join(SHARD_TAG_FILE), text.as_bytes())
}

/// Reads the shard tag from `dir`, if present.
///
/// # Errors
///
/// Propagates filesystem errors; a corrupt tag surfaces as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_tag(dir: &Path) -> std::io::Result<Option<ShardIdentity>> {
    durable::read_json(&dir.join(SHARD_TAG_FILE))
}

/// Validates that `dir` may be (re)used by a daemon with `identity`
/// (`None` = an unsharded daemon) and stamps the tag when sharded.
/// A seat mismatch is an error: resuming another shard's accumulator
/// would silently double-count its slice. A map-*version* change on
/// the same seat is fine — that is exactly what failover rebalances
/// produce.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidInput`] on a seat mismatch (including
/// sharded state reused unsharded, and vice versa), plus IO errors.
pub fn claim_state_dir(dir: &Path, identity: Option<&ShardIdentity>) -> std::io::Result<()> {
    let existing = read_tag(dir)?;
    match (existing, identity) {
        (None, None) => Ok(()),
        (None, Some(id)) => write_tag(dir, id),
        (Some(tag), None) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{}: state dir is tagged for shard {tag}; refusing to resume it unsharded",
                dir.display()
            ),
        )),
        (Some(tag), Some(id)) => {
            if tag.shard != id.shard || tag.of != id.of {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "{}: state dir is tagged for shard {tag}, but this daemon is shard {id}",
                        dir.display()
                    ),
                ));
            }
            if tag.map_version != id.map_version {
                write_tag(dir, id)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leakprofd-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn slices_are_disjoint_and_cover_the_fleet() {
        let addr: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
        let targets: Vec<ScrapeTarget> = (0..40)
            .map(|i| ScrapeTarget {
                instance: format!("svc-{i}"),
                addr,
                path: format!("/instance/svc-{i}/debug/pprof/goroutine"),
            })
            .collect();
        let map = ShardMap::new(3);
        let mut total = 0;
        for index in 0..3 {
            let spec = ShardSpec {
                map: map.clone(),
                index,
            };
            let slice = spec.filter_targets(targets.clone());
            for t in &slice {
                assert_eq!(map.owner(&t.instance), Some(index));
            }
            total += slice.len();
        }
        assert_eq!(total, targets.len());
    }

    #[test]
    fn claim_rejects_cross_shard_reuse_but_allows_rebalance() {
        let dir = tmp_dir("claim");
        let map = ShardMap::new(3);
        let id0 = map.identity(0);
        claim_state_dir(&dir, Some(&id0)).unwrap();
        assert_eq!(read_tag(&dir).unwrap(), Some(id0.clone()));

        // Another seat may not take over this state.
        let err = claim_state_dir(&dir, Some(&map.identity(1))).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Nor may an unsharded daemon resume it.
        let err = claim_state_dir(&dir, None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

        // The same seat under a rebalanced map version is fine, and the
        // tag advances.
        let v2 = map.rebalanced(&[2]).identity(0);
        claim_state_dir(&dir, Some(&v2)).unwrap();
        assert_eq!(read_tag(&dir).unwrap().unwrap().map_version, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsharded_dirs_stay_untagged() {
        let dir = tmp_dir("untagged");
        claim_state_dir(&dir, None).unwrap();
        assert_eq!(read_tag(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
