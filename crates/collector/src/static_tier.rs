//! The daemon's static analysis tier: a persistent, content-addressed
//! criterion-2 verdict cache.
//!
//! The offline pipeline parses every source file on each sweep; a
//! long-running daemon cannot afford that on its hot path. This module
//! gives the daemon the same criterion-2 transient-op filter at near
//! zero steady-state cost:
//!
//! * each `.go` file under the source directory is fingerprinted
//!   (FNV-64 over its bytes, by [`crate::source_tree`]);
//! * on a fingerprint **miss** the file is parsed once and its transient
//!   verdicts ([`leakprof::VerdictSet::compute_file`]) are stored in a
//!   versioned, deterministic `verdicts.json` next to the daemon's other
//!   durable state;
//! * on a **hit** the cached verdicts are reused — no parsing, no AST.
//!
//! Because the criterion-2 analysis is file-local, per-file
//! recomputation is exact: a warm cache answers every filter query
//! in-memory indexing ([`leakprof::LeakProf::index_source`]) would,
//! byte-for-byte. Misses are analyzed in parallel across a small worker
//! pool. A file that is not valid UTF-8 counts as a parse error, like
//! any other file that does not parse. The cache survives daemon
//! restarts via the same state directory machinery as snapshots and the
//! report ledger; a corrupt or version-skewed cache file is discarded
//! and rebuilt, never trusted.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use leakprof::{ChanOpKind, VerdictSet};
use serde::{Deserialize, Serialize};

use crate::source_tree::{read_go_tree, GoFile};

/// On-disk format version of `verdicts.json`; bumped whenever the
/// verdict semantics or the entry layout change so stale caches are
/// rebuilt instead of misread.
pub const VERDICT_CACHE_VERSION: u32 = 1;

/// Worker threads analyzing cache misses.
const ANALYZE_THREADS: usize = 4;

/// Static-tier configuration.
#[derive(Debug, Clone)]
pub struct StaticTierConfig {
    /// Root of the service source tree; file keys are forward-slash
    /// paths relative to this directory, matching in-profile paths.
    pub source_dir: PathBuf,
    /// Where the verdict cache persists (defaults to
    /// `<state_dir>/verdicts.json` when wired into the daemon).
    pub cache_path: PathBuf,
}

impl StaticTierConfig {
    /// Config with the cache stored inside `state_dir`.
    pub fn in_state_dir(source_dir: PathBuf, state_dir: &Path) -> StaticTierConfig {
        StaticTierConfig {
            source_dir,
            cache_path: state_dir.join("verdicts.json"),
        }
    }
}

/// Lifetime counters and last-sync timings, served in `/status` and
/// `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticTierStats {
    /// Completed cache syncs.
    pub syncs: u64,
    /// Files answered from cache (fingerprint match, no parse).
    pub cache_hits: u64,
    /// Files whose fingerprint missed the cache.
    pub cache_misses: u64,
    /// Files actually parsed and analyzed.
    pub files_parsed: u64,
    /// Files that are not valid UTF-8 or failed to parse (left
    /// uncovered; the filter falls back to its conservative
    /// keep-the-suspect default for them).
    pub parse_errors: u64,
    /// Files covered by the current verdict set.
    pub covered_files: u64,
    /// Wall time of the last directory scan + fingerprint pass (µs).
    pub last_scan_us: u64,
    /// Wall time of the last miss-analysis pass (µs); ~0 when warm.
    pub last_analyze_us: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CacheEntry {
    /// FNV-64 fingerprint of the file bytes the verdicts were computed
    /// from.
    fp: u64,
    /// Whether the file parsed; `false` entries pin the fingerprint so
    /// a broken file is not re-parsed every cycle, but contribute no
    /// coverage.
    parsed: bool,
    /// Lines/op-kinds judged transient by criterion 2.
    transient: Vec<(u32, ChanOpKind)>,
}

#[derive(Debug, Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    entries: BTreeMap<String, CacheEntry>,
}

/// The static tier: verdict cache + sync machinery.
pub struct StaticTier {
    config: StaticTierConfig,
    entries: BTreeMap<String, CacheEntry>,
    stats: StaticTierStats,
    tracer: obs::Tracer,
}

impl std::fmt::Debug for StaticTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticTier")
            .field("config", &self.config)
            .field("entries", &self.entries)
            .field("stats", &self.stats)
            .finish()
    }
}

impl StaticTier {
    /// Opens the tier, loading any persisted cache. A missing,
    /// corrupt, or version-skewed cache file yields an empty cache (the
    /// next sync rebuilds it); only genuine IO errors propagate.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the cache file exists but cannot be read.
    pub fn open(config: StaticTierConfig) -> io::Result<StaticTier> {
        let entries = match durable::read_json::<CacheFile>(&config.cache_path) {
            Ok(Some(cache)) if cache.version == VERDICT_CACHE_VERSION => cache.entries,
            Ok(_) => BTreeMap::new(),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => BTreeMap::new(),
            Err(e) => return Err(e),
        };
        Ok(StaticTier {
            config,
            entries,
            stats: StaticTierStats::default(),
            tracer: obs::Tracer::disabled(),
        })
    }

    /// Installs the tracer that [`StaticTier::sync`] records its spans
    /// into.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }

    /// Synchronizes the cache with the source tree and returns the
    /// assembled verdict set.
    ///
    /// Scans the source directory, fingerprints every `.go` file,
    /// analyzes only fingerprint misses (in parallel), prunes entries
    /// for deleted files, and persists the cache when it changed. On a
    /// warm tree this does no parsing at all — just the scan.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the source directory cannot be walked or
    /// the cache file cannot be written.
    pub fn sync(&mut self) -> io::Result<VerdictSet> {
        let mut span = self.tracer.start(obs::stage::STATIC_SYNC, "");
        let hits_before = self.stats.cache_hits;
        let misses_before = self.stats.cache_misses;
        let scan_start = Instant::now();
        let sources = read_go_tree(&self.config.source_dir)?;
        self.stats.last_scan_us = scan_start.elapsed().as_micros() as u64;

        let analyze_start = Instant::now();
        let mut misses: Vec<&GoFile> = Vec::new();
        for file in &sources {
            match self.entries.get(&file.rel) {
                Some(cached) if cached.fp == file.fp => self.stats.cache_hits += 1,
                _ => {
                    self.stats.cache_misses += 1;
                    misses.push(file);
                }
            }
        }
        let analyzed = analyze_parallel(&misses);
        self.stats.files_parsed += analyzed.len() as u64;
        let mut dirty = !analyzed.is_empty();
        for (rel, entry) in analyzed {
            self.stats.parse_errors += u64::from(!entry.parsed);
            self.entries.insert(rel, entry);
        }
        let live: std::collections::BTreeSet<&str> =
            sources.iter().map(|f| f.rel.as_str()).collect();
        let before = self.entries.len();
        self.entries.retain(|rel, _| live.contains(rel.as_str()));
        dirty |= self.entries.len() != before;
        self.stats.last_analyze_us = analyze_start.elapsed().as_micros() as u64;

        if dirty {
            self.persist()?;
        }
        let mut vs = VerdictSet::new();
        for (rel, entry) in &self.entries {
            if entry.parsed {
                vs.insert_file(rel, &entry.transient);
            }
        }
        self.stats.covered_files = vs.files() as u64;
        self.stats.syncs += 1;
        span.attr("files", sources.len());
        span.attr("cache_hits", self.stats.cache_hits - hits_before);
        span.attr("parsed", self.stats.cache_misses - misses_before);
        Ok(vs)
    }

    /// Current counters and timings.
    pub fn stats(&self) -> &StaticTierStats {
        &self.stats
    }

    /// Where the cache persists.
    pub fn cache_path(&self) -> &Path {
        &self.config.cache_path
    }

    /// Writes the cache atomically, under the same crash-safety rule as
    /// the snapshot store.
    fn persist(&self) -> io::Result<()> {
        if let Some(parent) = self.config.cache_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let cache = CacheFile {
            version: VERDICT_CACHE_VERSION,
            entries: self.entries.clone(),
        };
        let text = serde_json::to_string_pretty(&cache).expect("cache serializes");
        durable::write_atomic(&self.config.cache_path, text.as_bytes())
    }
}

/// Parses and analyzes missed files across a worker pool, yielding one
/// `(rel_path, entry)` per miss; a file that is not valid UTF-8 or
/// fails to parse yields an unparsed entry.
fn analyze_parallel(misses: &[&GoFile]) -> Vec<(String, CacheEntry)> {
    if misses.is_empty() {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(misses.len()));
    let workers = ANALYZE_THREADS.min(misses.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(miss) = misses.get(i) else {
                    break;
                };
                let transient = std::str::from_utf8(&miss.bytes)
                    .ok()
                    .and_then(|text| minigo::parse_file(text, &miss.rel).ok())
                    .map(|file| VerdictSet::compute_file(&file));
                let entry = CacheEntry {
                    fp: miss.fp,
                    parsed: transient.is_some(),
                    transient: transient.unwrap_or_default(),
                };
                results
                    .lock()
                    .expect("worker poisoned")
                    .push((miss.rel.clone(), entry));
            });
        }
    });
    results.into_inner().expect("worker poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leakprofd-static-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const LEAKY: &str = "package pay\n\nfunc Serve(n int) {\n\tch := make(chan int)\n\tfor i := 0; i < n; i++ {\n\t\tgo func() {\n\t\t\tch <- i\n\t\t}()\n\t}\n\tfirst := <-ch\n\t_ = first\n}\n";
    const TRANSIENT: &str = "package poll\n\nimport \"time\"\n\nfunc Tickloop() {\n\tfor {\n\t\tselect {\n\t\tcase <-time.Tick(1):\n\t\t\treturn\n\t\t}\n\t}\n}\n";

    #[test]
    fn cold_sync_parses_then_warm_sync_hits() {
        let root = temp_root("warm");
        let src = root.join("src");
        std::fs::create_dir_all(src.join("pay")).unwrap();
        std::fs::write(src.join("pay/serve.go"), LEAKY).unwrap();
        std::fs::write(src.join("pay/poll.go"), TRANSIENT).unwrap();
        let config = StaticTierConfig::in_state_dir(src.clone(), &root);

        let mut tier = StaticTier::open(config.clone()).unwrap();
        let vs = tier.sync().unwrap();
        assert_eq!(tier.stats().cache_misses, 2);
        assert_eq!(tier.stats().files_parsed, 2);
        assert_eq!(tier.stats().cache_hits, 0);
        assert_eq!(vs.files(), 2);
        assert!(vs.covers("pay/poll.go"));

        let vs2 = tier.sync().unwrap();
        assert_eq!(tier.stats().cache_hits, 2);
        assert_eq!(tier.stats().files_parsed, 2, "warm sync must not re-parse");
        assert_eq!(vs, vs2, "warm verdicts identical to cold");

        // A fresh process on the same cache path: zero parses.
        let mut tier2 = StaticTier::open(config).unwrap();
        let vs3 = tier2.sync().unwrap();
        assert_eq!(
            tier2.stats().files_parsed,
            0,
            "restart must reuse the cache"
        );
        assert_eq!(tier2.stats().cache_hits, 2);
        assert_eq!(vs, vs3);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn edits_and_deletes_invalidate_only_the_changed_file() {
        let root = temp_root("edit");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.go"), LEAKY).unwrap();
        std::fs::write(src.join("b.go"), TRANSIENT).unwrap();
        let mut tier =
            StaticTier::open(StaticTierConfig::in_state_dir(src.clone(), &root)).unwrap();
        tier.sync().unwrap();
        assert_eq!(tier.stats().files_parsed, 2);

        std::fs::write(src.join("a.go"), LEAKY.replace("pay", "billing")).unwrap();
        tier.sync().unwrap();
        assert_eq!(
            tier.stats().files_parsed,
            3,
            "only the edited file re-parses"
        );
        assert_eq!(tier.stats().cache_hits, 1);

        std::fs::remove_file(src.join("b.go")).unwrap();
        let vs = tier.sync().unwrap();
        assert!(!vs.covers("b.go"), "deleted files leave the verdict set");
        assert_eq!(vs.files(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parse_errors_are_pinned_not_retried_and_not_covered() {
        let root = temp_root("err");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("bad.go"), "package p\nfunc {{{\n").unwrap();
        let mut tier =
            StaticTier::open(StaticTierConfig::in_state_dir(src.clone(), &root)).unwrap();
        let vs = tier.sync().unwrap();
        assert_eq!(tier.stats().parse_errors, 1);
        assert!(!vs.covers("bad.go"));
        tier.sync().unwrap();
        assert_eq!(
            tier.stats().files_parsed,
            1,
            "a broken file is not re-parsed until it changes"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn non_utf8_file_is_a_pinned_parse_error_not_a_sync_failure() {
        let root = temp_root("utf8");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.go"), LEAKY).unwrap();
        let mut tier =
            StaticTier::open(StaticTierConfig::in_state_dir(src.clone(), &root)).unwrap();
        tier.sync().unwrap();
        assert_eq!(tier.stats().files_parsed, 1);

        std::fs::write(src.join("bin.go"), [0xff, 0xfe, 0x00, 0x41]).unwrap();
        std::fs::write(src.join("a.go"), LEAKY.replace("pay", "billing")).unwrap();
        let vs = tier
            .sync()
            .expect("a non-UTF-8 file must not fail the sync");
        assert_eq!(tier.stats().files_parsed, 3, "the edit is analysed");
        assert_eq!(tier.stats().parse_errors, 1);
        assert!(vs.covers("a.go") && !vs.covers("bin.go"));
        tier.sync().unwrap();
        assert_eq!(
            tier.stats().files_parsed,
            3,
            "the undecodable file is pinned, not re-read as new"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_cache_is_rebuilt_not_trusted() {
        let root = temp_root("corrupt");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.go"), LEAKY).unwrap();
        let config = StaticTierConfig::in_state_dir(src, &root);
        std::fs::write(&config.cache_path, "{ not json").unwrap();
        let mut tier = StaticTier::open(config).unwrap();
        tier.sync().unwrap();
        assert_eq!(tier.stats().files_parsed, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
