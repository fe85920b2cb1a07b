//! The daemon's race-detection tier: a content-addressed cache of
//! happens-before race suspects.
//!
//! Race detection is *dynamic* — it compiles the service's sources in
//! race mode and interprets them under the happens-before engine — so
//! it is far too expensive for the collection hot path. This tier runs
//! it the way the static tier runs criterion-2: keyed by a fingerprint
//! of the whole source tree.
//!
//! * every `.go` file under the source directory contributes to one
//!   FNV-64 tree fingerprint (path + contents, by
//!   [`crate::source_tree`]);
//! * on a fingerprint **miss** the tree is compiled with race
//!   instrumentation, every discovered zero-arg entry runs under the
//!   detector's default seed and tick budget, and the resulting
//!   suspects (in the exact
//!   [`SiteStats`] shape leak suspects use) are cached in a versioned
//!   `races.json`;
//! * on a **hit** the cached suspects are returned — no compile, no
//!   interpretation.
//!
//! The cycle merges these suspects into the analysis *before* the
//! ledger applies it, so races fingerprint into `/health` trends, the
//! report ledger, and notifications exactly like leaks. A corrupt or
//! version-skewed cache is discarded and rebuilt, never trusted.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use leakprof::analyze::SiteStats;
use racecheck::{check_entries, discover_entries, RunConfig};
use serde::{Deserialize, Serialize};

use crate::source_tree::{into_sources, read_go_tree, tree_fingerprint};

/// On-disk format version of `races.json`; bumped whenever the
/// detector's semantics or the entry layout change.
pub const RACE_CACHE_VERSION: u32 = 1;

/// Race-tier configuration.
#[derive(Debug, Clone)]
pub struct RaceTierConfig {
    /// Root of the service source tree.
    pub source_dir: PathBuf,
    /// Where the suspect cache persists (defaults to
    /// `<state_dir>/races.json` when wired into the daemon).
    pub cache_path: PathBuf,
}

impl RaceTierConfig {
    /// Config with the cache stored inside `state_dir`.
    pub fn in_state_dir(source_dir: PathBuf, state_dir: &Path) -> RaceTierConfig {
        RaceTierConfig {
            source_dir,
            cache_path: state_dir.join("races.json"),
        }
    }
}

/// Lifetime counters, served in `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceTierStats {
    /// Completed syncs.
    pub syncs: u64,
    /// Syncs answered from cache (tree fingerprint match).
    pub cache_hits: u64,
    /// Syncs that had to compile and run the tree.
    pub cache_misses: u64,
    /// Entry points interpreted across all misses.
    pub entries_run: u64,
    /// Trees that failed to compile in race mode, or held a file that
    /// is not valid UTF-8 (cached as empty so a broken tree is not
    /// recompiled every cycle).
    pub compile_errors: u64,
    /// Race suspects in the current verdict.
    pub suspects: u64,
    /// Wall time of the last sync (µs); ~0 when warm.
    pub last_sync_us: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    /// FNV-64 fingerprint of the tree the suspects were computed from.
    fingerprint: u64,
    /// True when the tree compiled; `false` pins the fingerprint.
    compiled: bool,
    suspects: Vec<SiteStats>,
}

/// The race tier: suspect cache + sync machinery.
#[derive(Debug)]
pub struct RaceTier {
    config: RaceTierConfig,
    cached: Option<CacheFile>,
    stats: RaceTierStats,
}

impl RaceTier {
    /// Opens the tier, loading any persisted cache. Missing, corrupt,
    /// or version-skewed caches yield a cold tier.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the cache file exists but cannot be read.
    pub fn open(config: RaceTierConfig) -> io::Result<RaceTier> {
        let cached = match durable::read_json::<CacheFile>(&config.cache_path) {
            Ok(Some(c)) if c.version == RACE_CACHE_VERSION => Some(c),
            Ok(_) => None,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => None,
            Err(e) => return Err(e),
        };
        Ok(RaceTier {
            config,
            cached,
            stats: RaceTierStats::default(),
        })
    }

    /// Synchronizes with the source tree and returns the current race
    /// suspects. A warm tree costs one directory scan.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the source directory cannot be walked or
    /// the cache cannot be written. Compile errors (a non-UTF-8 file
    /// among them) do not propagate: they pin an empty verdict until
    /// the tree changes.
    pub fn sync(&mut self) -> io::Result<Vec<SiteStats>> {
        let start = Instant::now();
        let files = read_go_tree(&self.config.source_dir)?;
        let fp = tree_fingerprint(&files);

        if let Some(cache) = self.cached.as_ref().filter(|c| c.fingerprint == fp) {
            self.stats.cache_hits += 1;
            self.stats.syncs += 1;
            self.stats.suspects = cache.suspects.len() as u64;
            self.stats.last_sync_us = start.elapsed().as_micros() as u64;
            return Ok(cache.suspects.clone());
        }

        self.stats.cache_misses += 1;
        let checked = into_sources(files).ok().and_then(|sources| {
            let entries = discover_entries(&sources).ok()?;
            let report = check_entries(&sources, &entries, &RunConfig::default()).ok()?;
            Some((entries, report))
        });
        let (compiled, suspects) = match checked {
            Some((entries, report)) => {
                self.stats.entries_run += entries.len() as u64;
                (true, report.suspects)
            }
            None => {
                self.stats.compile_errors += 1;
                (false, Vec::new())
            }
        };
        self.cached = Some(CacheFile {
            version: RACE_CACHE_VERSION,
            fingerprint: fp,
            compiled,
            suspects: suspects.clone(),
        });
        self.persist()?;
        self.stats.syncs += 1;
        self.stats.suspects = suspects.len() as u64;
        self.stats.last_sync_us = start.elapsed().as_micros() as u64;
        Ok(suspects)
    }

    /// Current counters.
    pub fn stats(&self) -> &RaceTierStats {
        &self.stats
    }

    /// Where the cache persists.
    pub fn cache_path(&self) -> &Path {
        &self.config.cache_path
    }

    /// Writes the cache atomically.
    fn persist(&self) -> io::Result<()> {
        let Some(cache) = &self.cached else {
            return Ok(());
        };
        if let Some(parent) = self.config.cache_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let text = serde_json::to_string_pretty(cache).expect("cache serializes");
        durable::write_atomic(&self.config.cache_path, text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakprof::signature::ChanOpKind;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leakprofd-race-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const RACY: &str = "package acct\n\nfunc TestUpdate() {\n\tdone := make(chan int)\n\ttotal := 0\n\tgo func() {\n\t\ttotal = total + 1\n\t\tdone <- 1\n\t}()\n\ttotal = total + 1\n\t<-done\n}\n";
    const CLEAN: &str = "package ok\n\nfunc TestHandoff() {\n\tdata := 0\n\tch := make(chan int)\n\tgo func() {\n\t\tdata = 42\n\t\tch <- 1\n\t}()\n\t<-ch\n\tsim.Work(data)\n}\n";

    #[test]
    fn cold_sync_detects_then_warm_sync_hits_cache() {
        let root = temp_root("warm");
        let src = root.join("src");
        std::fs::create_dir_all(src.join("acct")).unwrap();
        std::fs::write(src.join("acct/update.go"), RACY).unwrap();
        let config = RaceTierConfig::in_state_dir(src.clone(), &root);

        let mut tier = RaceTier::open(config.clone()).unwrap();
        let suspects = tier.sync().unwrap();
        assert_eq!(tier.stats().cache_misses, 1);
        assert!(!suspects.is_empty(), "the racy tree must yield suspects");
        assert!(suspects.iter().all(|s| s.op.kind == ChanOpKind::Race));

        let again = tier.sync().unwrap();
        assert_eq!(tier.stats().cache_hits, 1, "warm sync must not re-run");
        assert_eq!(
            serde_json::to_string(&suspects).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "warm suspects identical to cold"
        );

        // A fresh process on the same cache path: zero runs.
        let mut tier2 = RaceTier::open(config).unwrap();
        let restored = tier2.sync().unwrap();
        assert_eq!(tier2.stats().cache_misses, 0, "restart must reuse cache");
        assert_eq!(
            serde_json::to_string(&suspects).unwrap(),
            serde_json::to_string(&restored).unwrap(),
            "suspects survive restart byte-identically"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn clean_tree_yields_no_suspects_and_edits_invalidate() {
        let root = temp_root("edit");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("ok.go"), CLEAN).unwrap();
        let mut tier = RaceTier::open(RaceTierConfig::in_state_dir(src.clone(), &root)).unwrap();
        assert!(tier.sync().unwrap().is_empty(), "clean tree: no suspects");

        std::fs::write(src.join("racy.go"), RACY).unwrap();
        let suspects = tier.sync().unwrap();
        assert_eq!(tier.stats().cache_misses, 2, "edit re-runs the detector");
        assert!(!suspects.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn broken_tree_is_pinned_not_retried() {
        let root = temp_root("broken");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("bad.go"), "package p\nfunc {{{\n").unwrap();
        let mut tier = RaceTier::open(RaceTierConfig::in_state_dir(src.clone(), &root)).unwrap();
        assert!(tier.sync().unwrap().is_empty());
        assert_eq!(tier.stats().compile_errors, 1);
        tier.sync().unwrap();
        assert_eq!(
            tier.stats().compile_errors,
            1,
            "a broken tree is not recompiled until it changes"
        );
        assert_eq!(tier.stats().cache_hits, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn non_utf8_file_is_a_pinned_compile_error_not_a_sync_failure() {
        let root = temp_root("utf8");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.go"), RACY).unwrap();
        std::fs::write(src.join("bin.go"), [0xff, 0xfe, 0x00, 0x41]).unwrap();
        let mut tier = RaceTier::open(RaceTierConfig::in_state_dir(src.clone(), &root)).unwrap();
        let suspects = tier
            .sync()
            .expect("a non-UTF-8 file must not fail the sync");
        assert!(suspects.is_empty());
        assert_eq!(tier.stats().compile_errors, 1);
        tier.sync().unwrap();
        assert_eq!(tier.stats().cache_hits, 1, "the broken tree is pinned");
        assert_eq!(tier.stats().compile_errors, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_cache_is_rebuilt_not_trusted() {
        let root = temp_root("corrupt");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.go"), RACY).unwrap();
        let config = RaceTierConfig::in_state_dir(src, &root);
        std::fs::write(&config.cache_path, "{ not json").unwrap();
        let mut tier = RaceTier::open(config).unwrap();
        let suspects = tier.sync().unwrap();
        assert_eq!(tier.stats().cache_misses, 1);
        assert!(!suspects.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
