//! # leakprof — production goroutine-profile analysis (paper Section V)
//!
//! LeakProf finds goroutine leaks in *running services* by analyzing
//! goroutine profiles (the simulator's [`gosim::GoroutineProfile`],
//! mirroring pprof):
//!
//! 1. **Signature detection** ([`signature`]): goroutines blocked on
//!    channel operations are recognized by the `runtime.gopark` /
//!    `runtime.chansend1|chanrecv1|selectgo` stack pattern (Fig 4), and
//!    grouped by the source location of the blocking operation.
//! 2. **Criterion 1 — threshold** ([`analyze`]): only sites where some
//!    single profile shows at least `threshold` blocked goroutines are
//!    suspicious (the paper uses 10 000).
//! 3. **Criterion 2 — transient-op filter** ([`filter`]): a small
//!    AST-level static analysis drops `select`s that only wait on
//!    `time.Tick`/`time.After`/`ctx.Done()`.
//! 4. **RMS ranking and routing** ([`analyze`], [`report`]): sites are
//!    ranked by root-mean-square of per-instance blocked counts —
//!    chosen because it surfaces single-instance spikes — and the top N
//!    are routed to code owners.
//!
//! ## Example
//!
//! ```
//! use gosim::Runtime;
//! use leakprof::{LeakProf, Config};
//!
//! // A leaky service instance: 64 handler goroutines stuck sending.
//! let src = r#"
//! package pay
//!
//! func Serve(n int) {
//!     ch := make(chan int)
//!     for i := 0; i < n; i++ {
//!         go func() {
//!             ch <- i
//!         }()
//!     }
//!     first := <-ch
//!     _ = first
//! }
//! "#;
//! let prog = minigo::compile(src, "pay/serve.go").unwrap();
//! let mut rt = Runtime::with_seed(0);
//! prog.spawn_func(&mut rt, "pay.Serve", vec![64i64.into()]);
//! rt.run_until_blocked(100_000);
//!
//! let profile = rt.goroutine_profile("pay-host-0");
//! let mut lp = LeakProf::new(Config { threshold: 50, ..Config::default() });
//! lp.index_source(src, "pay/serve.go").unwrap();
//! let report = lp.analyze(&[profile]);
//! assert_eq!(report.suspects.len(), 1);
//! assert_eq!(report.suspects[0].stats.total, 63); // n-1 leaked senders
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod filter;
pub mod history;
pub mod report;
pub mod series;
pub mod signature;

pub use analyze::{
    aggregate, aggregate_parallel, analyze_profile, fold_profiles, rms, AccumulatorSnapshot,
    Config, FleetAccumulator, ProfileSites, SiteSnapshot, SiteStats, SNAPSHOT_VERSION,
};
pub use filter::{is_transient, VerdictSet};
pub use history::{Issue, IssueStatus, SweepDelta, SweepStore};
pub use report::{OwnerDb, Report, Suspect};
pub use series::{op_fingerprint, site_fingerprint};
pub use signature::{blocked_op, BlockedOp, ChanOpKind};

use gosim::GoroutineProfile;

/// The LeakProf service: configuration + criterion-2 verdicts +
/// ownership, with a one-call [`LeakProf::analyze`] entry point for a
/// daily sweep.
#[derive(Debug, Default)]
pub struct LeakProf {
    config: Config,
    verdicts: VerdictSet,
    owners: OwnerDb,
}

impl LeakProf {
    /// Creates a LeakProf instance with the given configuration.
    pub fn new(config: Config) -> Self {
        LeakProf {
            config,
            verdicts: VerdictSet::new(),
            owners: OwnerDb::new(),
        }
    }

    /// Parses a source file and records its criterion-2 verdicts (see
    /// [`VerdictSet::compute_file`]); the AST is not kept.
    ///
    /// # Errors
    ///
    /// Returns parse diagnostics for malformed source.
    pub fn index_source(&mut self, src: &str, path: &str) -> Result<(), Vec<minigo::Diag>> {
        self.verdicts.add_file(&minigo::parse_file(src, path)?);
        Ok(())
    }

    /// Installs (replaces) the criterion-2 verdicts, e.g. those a
    /// persistent verdict cache assembled.
    pub fn install_verdicts(&mut self, verdicts: VerdictSet) {
        self.verdicts = verdicts;
    }

    /// Turns the criterion-2 filter on or off after construction.
    pub fn set_ast_filter(&mut self, on: bool) {
        self.config.ast_filter = on;
    }

    /// Registers a code owner for a path prefix.
    pub fn add_owner(&mut self, prefix: &str, owner: &str) {
        self.owners.insert(prefix, owner);
    }

    /// Analyzes a set of profiles (one per service instance) and returns
    /// the ranked, routed report.
    pub fn analyze(&self, profiles: &[GoroutineProfile]) -> Report {
        let stats = aggregate(profiles, &self.config, &self.verdicts);
        Report {
            suspects: report::route(stats, &self.owners),
            profiles_analyzed: profiles.len(),
            goroutines_seen: profiles.iter().map(|p| p.len() as u64).sum(),
        }
    }

    /// Builds the ranked, routed report from a streaming accumulator.
    ///
    /// For the same profiles in the same order, this matches what
    /// [`LeakProf::analyze`] returns — the collection daemon uses it to
    /// report after every scrape cycle without re-analyzing history.
    pub fn report_from_accumulator(&self, acc: &FleetAccumulator) -> Report {
        let stats = acc.ranked(&self.config, &self.verdicts);
        Report {
            suspects: report::route(stats, &self.owners),
            profiles_analyzed: acc.profiles_ingested(),
            goroutines_seen: acc.goroutines_seen(),
        }
    }
}
