//! # leakcore — the end-to-end dynamic-analysis methodology (paper Fig 3)
//!
//! Glue that assembles the workspace's pieces into the paper's two
//! pipelines:
//!
//! * **CI gate** ([`ci`]): every PR's unit tests run on [`gosim`]
//!   runtimes instrumented with [`goleak`]; PRs introducing unsuppressed
//!   goroutine leaks are blocked. A trial run seeds the suppression list
//!   with legacy leaks, enabling incremental rollout.
//! * **Production monitor** ([`evaluate::evaluate_leakprof`] and the
//!   `fleet` crate): daily profile sweeps feed [`leakprof`], which
//!   thresholds, filters, ranks by RMS, and routes reports to owners.
//!   The `collector` crate's `leakprofd` daemon runs the same sweep the
//!   way production does, over real TCP.
//!
//! Plus the experiment harnesses:
//!
//! * [`backtest`] reproduces Fig 5 (weekly leak inflow collapsing when
//!   the gate deploys);
//! * [`evaluate`] reproduces Table III (measured precision/recall and
//!   offline cost of the three static baselines vs the dynamic tools).
//!
//! The paper's Fig 3, in ASCII:
//!
//! ```text
//!              developer PR
//!                   │
//!         ┌─────────▼─────────┐   fail: new leak      ┌────────────┐
//!         │ CI: run unit tests │──────────────────────▶ PR blocked  │
//!         │  + goleak verify   │   (unless suppressed) └────────────┘
//!         └─────────┬─────────┘
//!                   │ pass
//!         ┌─────────▼─────────┐        daily sweep    ┌────────────┐
//!         │ deploy to          │  profiles  ┌────────┐ │  owner      │
//!         │ production fleet   │───────────▶│LeakProf│▶│  report     │
//!         └───────────────────┘            └────────┘ └────────────┘
//! ```
#![warn(missing_docs)]

pub mod backtest;
pub mod ci;
pub mod evaluate;

pub use backtest::{run as run_backtest, BacktestConfig, BacktestResult};
pub use ci::{CiConfig, CiGate, PrResult, TestOutcome};
pub use evaluate::{
    evaluate_goleak, evaluate_leakprof, evaluate_leakprof_with_threshold, evaluate_static,
    render_table3, ToolEval,
};
