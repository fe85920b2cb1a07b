//! `leakprofd`: continuous, networked profile collection and streaming
//! leak analysis.
//!
//! The paper's LeakProf runs as a production service: every instance
//! exposes `/debug/pprof/goroutine`, a collection box scrapes the fleet
//! on a schedule, and analysis ranks blocking sites fleet-wide. This
//! crate reproduces that loop over real TCP on `std::net`:
//!
//! * [`http`] — minimal HTTP/1.1 server + client (no external deps).
//! * [`endpoints`] — one listener multiplexing many instances by path
//!   prefix (`/instance/<id>/debug/pprof/goroutine`), with per-instance
//!   fault injection for testing the failure paths.
//! * [`scrape`] — bounded-worker scatter-gather with per-request
//!   deadlines, deterministic retry/backoff jitter, a per-target
//!   attempt budget, and a keep-alive pool reusing one connection per
//!   target across cycles.
//! * [`ingest`] — push-mode ingestion (`POST /api/push`): bounded
//!   ingest queue with admission control, `429 Retry-After` shedding at
//!   the high watermark, newest-wins per-instance coalescing on shard
//!   absorbers, and a cycle-end fold through the exact `merge` so push
//!   and pull tiers land in one ranking.
//! * [`push`] — the pusher side: watermark trigger, capped exponential
//!   backoff honoring `Retry-After` with deterministic jitter, and the
//!   client loop behind `leakprofd push`.
//! * [`breaker`] — per-target circuit breakers quarantining dead
//!   instances, with decaying half-open probes.
//! * [`stats`] — scrape-health counters and latency histograms.
//! * [`snapshot`] — durable accumulator snapshots + a write-ahead log
//!   on the [`durable`] primitives; recovery is ranking-exact after a
//!   crash.
//! * [`ledger`] — persistent report cool-down: one page per regression
//!   episode, re-opened only when RMS beats the acknowledged level.
//! * [`static_tier`] — persistent, content-addressed criterion-2
//!   verdict cache: each source file is parsed once, reused across
//!   cycles and restarts.
//! * [`source_tree`] — the one reader of a `.go` source tree (sorted
//!   relative paths, raw bytes, FNV-1a fingerprints) behind both source
//!   tiers and `leakprofd racecheck`.
//! * [`race_tier`] — content-addressed happens-before race suspects:
//!   the source tree is compiled in race mode and interpreted under
//!   vector clocks only when its fingerprint changes; cached suspects
//!   merge into the same ranking/ledger pipeline as leaks.
//! * [`health`] — per-site trend verdicts over the embedded
//!   [`timeseries`] store (the `/health` document and sparklines).
//! * [`backtest`] — offline replay of the persisted telemetry store
//!   into weekly per-site trend tables and CSVs, using the same
//!   classification path as the live `/health`.
//! * [`adaptive`] — trend-driven scrape-interval controller: backs off
//!   while the fleet is quiet, tightens when the top-K changes or a
//!   site's RMS slope/z-score fires.
//! * [`daemon`] — the cycle loop feeding [`leakprof::FleetAccumulator`],
//!   plus the daemon's own `/metrics`, `/status`, `/trace` (per-cycle
//!   span trees from [`obs`]), `/health` (per-site trend verdicts from
//!   [`timeseries`]), `/api/series` (range queries over the embedded
//!   multi-resolution store), `/logs` (the bounded structured event
//!   ring from [`obs`]), and `/debug/self` (the daemon's own worker
//!   threads as a scrapeable goroutine-style profile).
//! * [`shard`] — shard identity for sharded collection: slice
//!   filtering by [`shardmap::ShardMap`], state-dir tagging, and the
//!   `/api/snapshot` merge document.
//! * [`merge`] — the offline merge tier (`leakprofd merge`): fold N
//!   shard state dirs into one fleet-wide state, byte-identical to a
//!   whole-fleet daemon's.
//! * [`fleet_tier`] — the live merge tier (`leakprofd fleet`): poll N
//!   shard daemons' `/api/snapshot` over keep-alive connections behind
//!   circuit breakers, mark dark slices stale, emit rebalanced shard
//!   maps on failover, and serve the merged view.
//! * [`demo`] — a real [`fleet::Fleet`] wired to a hub, for the CLI demo
//!   commands, benches, and end-to-end tests.
//! * [`chaos`] — deterministic fault-schedule driver (scrape faults,
//!   churn, kill/restart) backing `tests/chaos.rs` and `leakprofd
//!   chaos`.

#![warn(missing_docs)]

pub mod adaptive;
pub mod backtest;
pub mod breaker;
pub mod chaos;
pub mod daemon;
pub mod demo;
pub mod endpoints;
pub mod flame;
pub mod fleet_tier;
pub mod health;
pub mod http;
pub mod ingest;
pub mod ledger;
pub mod merge;
pub mod push;
pub mod race_tier;
pub mod scrape;
pub mod shard;
pub mod snapshot;
pub mod source_tree;
pub mod static_tier;
pub mod stats;

pub use adaptive::{AdaptiveConfig, AdaptiveController, AdaptiveStatus, Decision, Direction};
pub use backtest::{
    backtest_store, render_table, render_verdicts_csv, render_weekly_csv, write_report,
    BacktestConfig, BacktestReport, WeeklySite,
};
pub use breaker::{BreakerConfig, BreakerSet, BreakerState, BreakerSummary, QuarantinedTarget};
pub use chaos::{run_chaos, ChaosConfig, ChaosFault, ChaosOutcome, ChaosPlan, ChaosPlanConfig};
pub use daemon::{
    daemon_routes, serve_daemon_endpoints, serve_daemon_endpoints_with, top_sites, Daemon,
    DaemonConfig, DaemonStatus, SeriesResponse, TopSite, SELF_INSTANCE,
};
pub use demo::DemoFleet;
pub use endpoints::{Fault, ProfileHub};
pub use flame::{build_flame, flame_verdicts, frame_label, live_weight, self_flame, serve_flame};
// The flame trie itself lives in dependency-free `obs` (like the
// histogram); re-exported so collector callers see one flame API.
pub use fleet_tier::{
    fleet_routes, serve_fleet_endpoints, FleetAggregator, FleetConfig, FleetStatus, PeerStatus,
};
pub use health::{classify_sites, sparkline, FleetHealth, SiteHealth, SPARK_POINTS};
pub use http::{
    http_get, http_get_with, http_post, http_post_with, HttpError, HttpServer, Request, Response,
    ResponseFault, ResponseMeta, ServerOptions,
};
pub use ingest::{dedupe_newest_wins, AbsorbedProfile, IngestConfig, IngestSummary, IngestTier};
pub use ledger::{
    CycleOutcome, EpisodeState, LedgerConfig, LedgerEntry, LedgerSummary, ReportLedger,
    LEDGER_VERSION,
};
pub use merge::{
    fold_order, fold_snapshot, load_shard_state, merge_state_dirs, merge_states, write_merged,
    MergeConfig, MergedFleet, ShardState, ShardSummary,
};
pub use obs::{FlameGraph, FlameNode, FlameOptions};
pub use push::{
    backoff_delay, backoff_schedule, PushClient, PushConfig, PushError, PushReceipt, PushStats,
    WatermarkTrigger, PUSH_PATH,
};
pub use race_tier::{RaceTier, RaceTierConfig, RaceTierStats, RACE_CACHE_VERSION};
pub use scrape::{
    CycleReport, KeepaliveSummary, ScrapeConfig, ScrapeError, ScrapeErrorKind, ScrapeTarget,
    Scraper,
};
pub use shard::{
    claim_state_dir, read_tag, write_tag, ApiSnapshot, ShardSpec, API_SNAPSHOT_VERSION,
    SHARD_TAG_FILE,
};
pub use snapshot::{
    DaemonSnapshot, Recovery, SnapshotStore, WalEntry, WalRecord, DAEMON_SNAPSHOT_VERSION,
};
pub use static_tier::{StaticTier, StaticTierConfig, StaticTierStats, VERDICT_CACHE_VERSION};
pub use stats::{CycleStats, HealthCounters, PromText};
