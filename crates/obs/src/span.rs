//! Lightweight spans and the per-cycle [`Tracer`].
//!
//! A span is deliberately small: numeric id and parent id, a static
//! stage label, an optional target string, a monotonic start offset and
//! a µs duration, plus a handful of string attributes. Spans are
//! recorded by dropping a [`SpanGuard`], which pushes the finished span
//! into the tracer's lock-free [`Ring`] — the hot path takes no locks.
//!
//! Once per cycle the daemon driver calls [`Tracer::finish_cycle`],
//! which drains the ring into a [`CycleTrace`] (retained for the last
//! `keep_cycles` cycles) and folds every span's duration into that
//! stage's [`LatencyHistogram`]. `/trace` serves the retained cycle
//! traces; `/status` and `leakprofd top` read the stage summaries.

use crate::context::{mint_span_id, TraceContext};
use crate::hist::LatencyHistogram;
use crate::ring::Ring;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical stage labels used across the daemon pipeline. Using shared
/// constants keeps `/trace` output, histograms, and the dashboard
/// agreeing on names.
pub mod stage {
    /// Root span covering one whole daemon cycle.
    pub const CYCLE: &str = "cycle";
    /// The fleet-wide scrape fan-out (all targets).
    pub const SCRAPE: &str = "scrape";
    /// One target's fetch+parse attempt (child of `scrape`).
    pub const TARGET: &str = "target";
    /// Appending the cycle's report to the write-ahead log.
    pub const WAL_APPEND: &str = "wal_append";
    /// Folding scraped profiles into the fleet accumulator.
    pub const INGEST: &str = "ingest";
    /// Static-analysis tier sync (parse-once cache refresh).
    pub const STATIC_SYNC: &str = "static_sync";
    /// Ranking suspects from the accumulator.
    pub const ANALYZE: &str = "analyze";
    /// Applying the ranked report to the dedup ledger.
    pub const LEDGER: &str = "ledger";
    /// Committing a durable snapshot to disk.
    pub const SNAPSHOT: &str = "snapshot";
    /// Appending the cycle's telemetry points to the time-series store.
    pub const TS_APPEND: &str = "ts_append";
    /// Trend classification + adaptive-interval decision.
    pub const TREND: &str = "trend";
    /// Root span covering one fleet-aggregator poll cycle over all
    /// shard daemons.
    pub const FLEET: &str = "fleet";
    /// Folding per-shard state (accumulators, ledgers, ts stores) into
    /// the fleet-wide view.
    pub const MERGE: &str = "merge";
    /// Draining the push-ingest tier's coalesced profiles at cycle end
    /// (child of `cycle`; carries admission-counter attrs).
    pub const PUSH: &str = "push";
    /// Serving one inbound HTTP request that carried a remote trace
    /// context (the receiver side of a cross-process hop).
    pub const SERVE: &str = "serve";
    /// A pusher's backoff/Retry-After sleep between shed attempts.
    pub const BACKOFF: &str = "backoff";

    /// Every pipeline stage, in pipeline order. Used by the dashboard
    /// so rows render in execution order rather than alphabetically.
    pub const ALL: [&str; 16] = [
        CYCLE,
        SCRAPE,
        TARGET,
        PUSH,
        BACKOFF,
        SERVE,
        WAL_APPEND,
        INGEST,
        STATIC_SYNC,
        ANALYZE,
        LEDGER,
        TS_APPEND,
        TREND,
        SNAPSHOT,
        FLEET,
        MERGE,
    ];
}

/// One finished span.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Span {
    /// Unique (per tracer) span id; ids start at 1 (0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Stage label, normally one of the [`stage`] constants.
    pub stage: String,
    /// What the span operated on (instance id, path, ...); empty when
    /// the stage label says it all.
    pub target: String,
    /// Start offset in µs since the tracer was created (monotonic).
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Free-form key/value attributes (attempt counts, byte sizes, ...).
    pub attrs: Vec<(String, String)>,
    /// The distributed trace id (32 hex digits) this span is pinned to.
    /// `None` for purely local spans, which inherit their trace through
    /// the parent chain at stitch time. Cross-process spans — cycle
    /// roots, serve spans, client-side hop spans — carry it explicitly
    /// so tail-sampling can always keep the cross-process skeleton.
    pub trace: Option<String>,
    /// For a serve span: the remote (sender-side) hop id this span
    /// hangs under. Stitching draws the flow arrow from the client span
    /// carrying the matching `hop` attribute to this span.
    pub remote_parent: Option<u64>,
}

/// All spans recorded during one daemon cycle.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct CycleTrace {
    /// The daemon cycle number these spans belong to.
    pub cycle: u64,
    /// Spans in ring (i.e. completion) order; the root `cycle` span
    /// finishes last.
    pub spans: Vec<Span>,
}

/// Aggregate latency numbers for one stage, across all retained cycles.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage label.
    pub stage: String,
    /// Number of spans folded in.
    pub count: u64,
    /// Median duration upper bound, µs.
    pub p50_us: u64,
    /// 99th-percentile duration upper bound, µs.
    pub p99_us: u64,
    /// Largest observed duration, µs.
    pub max_us: u64,
    /// Mean duration, µs.
    pub mean_us: u64,
}

/// What `/trace` serves: retained cycle traces plus aggregate stage
/// summaries and recording counters.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The most recent cycles' span trees, oldest first.
    pub cycles: Vec<CycleTrace>,
    /// Per-stage latency summaries since daemon start.
    pub stages: Vec<StageSummary>,
    /// Total spans recorded since daemon start.
    pub spans_recorded: u64,
    /// Spans dropped because the ring was full.
    pub spans_dropped: u64,
    /// Who recorded these spans (e.g. `leakprofd shard 0/3`); stitched
    /// exports use it as the Perfetto process name.
    pub service: String,
    /// The recording process's crate version.
    pub version: String,
    /// Wall-clock µs since the Unix epoch when this tracer was created;
    /// stitching aligns per-process monotonic offsets through it.
    pub epoch_unix_us: u64,
}

/// Tracer configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring capacity in spans (rounded up to a power of two). Must
    /// exceed the span count of one cycle or spans will be dropped and
    /// counted.
    pub ring_capacity: usize,
    /// How many finished cycle traces `/trace` retains.
    pub keep_cycles: usize,
    /// Tail-sampling: when on, full span detail is retained only for
    /// cycles that were flagged (errors/sheds) or slow relative to the
    /// running mean; other cycles keep just the cross-process skeleton
    /// (spans carrying a trace id). Stage histograms always fold every
    /// span either way.
    pub tail_sample: bool,
    /// A cycle is "slow" when its root duration exceeds this multiple
    /// of the running mean cycle duration.
    pub tail_slow_factor: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            keep_cycles: 8,
            tail_sample: false,
            tail_slow_factor: 2.0,
        }
    }
}

struct TracerInner {
    epoch: Instant,
    epoch_unix_us: u64,
    ring: Ring<Span>,
    next_id: AtomicU64,
    /// Ambient parent id used when a span is started without an explicit
    /// parent. Set by the driver around the cycle root; worker threads
    /// starting `target` spans pass parents explicitly.
    ambient: AtomicU64,
    recorded: AtomicU64,
    retained: Mutex<Retained>,
    keep_cycles: usize,
    tail_sample: bool,
    tail_slow_factor: f64,
    /// Process identity stamped into snapshots: (service, version).
    identity: Mutex<(String, String)>,
    /// The distributed trace context the in-progress (or most recent)
    /// cycle runs under.
    current: Mutex<Option<TraceContext>>,
    /// A remote context adopted mid-cycle; consumed by the next
    /// [`Tracer::begin_cycle`], so the next cycle parents under it.
    pending: Mutex<Option<TraceContext>>,
}

struct Retained {
    cycles: VecDeque<CycleTrace>,
    stages: BTreeMap<String, LatencyHistogram>,
    /// Running mean state for the tail-sampling slowness test.
    cycle_count: u64,
    cycle_dur_sum_us: u64,
    /// Recent (cycle, root duration, trace id) triples backing the
    /// worst-cycle exemplar.
    recent_roots: VecDeque<WorstCycle>,
}

/// The slowest recent cycle and the distributed trace that explains it
/// — the exemplar `/metrics` and report pages link to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCycle {
    /// Cycle number.
    pub cycle: u64,
    /// Root span duration, µs.
    pub dur_us: u64,
    /// Distributed trace id active during that cycle.
    pub trace_id: String,
}

/// How many recent cycles the worst-cycle exemplar is chosen over.
const WORST_WINDOW: usize = 32;

/// Records spans for the daemon pipeline. Cheap to clone (an `Arc`
/// internally); a tracer built with [`Tracer::disabled`] makes every
/// operation a no-op so instrumented code needs no `if` guards.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Default for Tracer {
    /// The default tracer is disabled: instrumented types can embed one
    /// unconditionally and stay zero-cost until a real tracer is set.
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// Builds a recording tracer from `cfg`.
    pub fn new(cfg: &TraceConfig) -> Tracer {
        let epoch_unix_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                epoch_unix_us,
                ring: Ring::new(cfg.ring_capacity),
                next_id: AtomicU64::new(1),
                ambient: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                retained: Mutex::new(Retained {
                    cycles: VecDeque::new(),
                    stages: BTreeMap::new(),
                    cycle_count: 0,
                    cycle_dur_sum_us: 0,
                    recent_roots: VecDeque::new(),
                }),
                keep_cycles: cfg.keep_cycles.max(1),
                tail_sample: cfg.tail_sample,
                tail_slow_factor: cfg.tail_slow_factor,
                identity: Mutex::new(("leakprofd".to_string(), String::new())),
                current: Mutex::new(None),
                pending: Mutex::new(None),
            })),
        }
    }

    /// The no-op tracer: every span is free, every query returns empty.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a span under the current ambient parent (see
    /// [`Tracer::set_ambient`]).
    pub fn start(&self, stage: &str, target: &str) -> SpanGuard {
        let parent = self
            .inner
            .as_ref()
            .map(|i| i.ambient.load(Ordering::Relaxed))
            .unwrap_or(0);
        self.start_with(stage, target, parent)
    }

    /// Starts a span with an explicit parent id (0 = root). Use this
    /// from worker threads, where the ambient parent would race.
    pub fn start_with(&self, stage: &str, target: &str, parent: u64) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { state: None },
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                // Root spans carry the cycle's distributed trace id so
                // tail-sampling and stitching always see them; children
                // inherit it through the parent chain.
                let trace = if parent == 0 {
                    inner
                        .current
                        .lock()
                        .expect("trace ctx poisoned")
                        .as_ref()
                        .map(|c| c.trace_id.clone())
                } else {
                    None
                };
                SpanGuard {
                    state: Some(GuardState {
                        tracer: Arc::clone(inner),
                        span: Span {
                            id,
                            parent,
                            stage: stage.to_string(),
                            target: target.to_string(),
                            start_us: inner.epoch.elapsed().as_micros() as u64,
                            dur_us: 0,
                            attrs: Vec::new(),
                            trace,
                            remote_parent: None,
                        },
                        started: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Starts a root span parented under a *remote* trace context — the
    /// receiving side of a cross-process hop. The span is pinned to the
    /// remote trace id and records the sender's hop id so stitching can
    /// draw the flow arrow.
    pub fn start_remote(&self, stage: &str, target: &str, ctx: &TraceContext) -> SpanGuard {
        let mut guard = self.start_with(stage, target, 0);
        if let Some(s) = &mut guard.state {
            s.span.trace = Some(ctx.trace_id.clone());
            s.span.remote_parent = Some(ctx.parent_span);
        }
        guard
    }

    /// Names this tracer's process in snapshots (service + version).
    /// Stitched Chrome exports render it as the process name, so shard
    /// identity belongs in `service`.
    pub fn set_service(&self, service: &str, version: &str) {
        if let Some(inner) = &self.inner {
            *inner.identity.lock().expect("identity poisoned") =
                (service.to_string(), version.to_string());
        }
    }

    /// Adopts a remote trace context: the *next* [`Tracer::begin_cycle`]
    /// joins that trace instead of minting a fresh root. A daemon calls
    /// this when the fleet aggregator's poll arrives, so its following
    /// cycle nests under the fleet trace.
    pub fn adopt_remote(&self, ctx: &TraceContext) {
        if let Some(inner) = &self.inner {
            *inner.pending.lock().expect("pending ctx poisoned") = Some(ctx.clone());
        }
    }

    /// Opens the distributed trace context for a new cycle: the pending
    /// adopted context if a remote hop arrived since the last cycle,
    /// otherwise a freshly minted root. Returns the context (None on a
    /// disabled tracer). Root spans started afterwards carry its trace
    /// id.
    pub fn begin_cycle(&self) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        let ctx = inner
            .pending
            .lock()
            .expect("pending ctx poisoned")
            .take()
            .unwrap_or_else(TraceContext::mint);
        *inner.current.lock().expect("trace ctx poisoned") = Some(ctx.clone());
        Some(ctx)
    }

    /// The distributed trace context of the in-progress (or most
    /// recent) cycle.
    pub fn current_context(&self) -> Option<TraceContext> {
        self.inner
            .as_ref()?
            .current
            .lock()
            .expect("trace ctx poisoned")
            .clone()
    }

    /// The trace id of the in-progress (or most recent) cycle.
    pub fn current_trace_id(&self) -> Option<String> {
        self.current_context().map(|c| c.trace_id)
    }

    /// Prepares an outgoing cross-process hop under `guard`: mints a
    /// hop id, stamps it (and the trace id) onto the guard so stitching
    /// can start the flow arrow here, and returns the context to send
    /// as the request's `traceparent` header. `None` when disabled or
    /// when no cycle context is open — then send no header.
    pub fn hop(&self, guard: &mut SpanGuard) -> Option<TraceContext> {
        let ctx = self.current_context()?;
        let hop_id = mint_span_id();
        if let Some(s) = &mut guard.state {
            s.span.trace = Some(ctx.trace_id.clone());
            s.span
                .attrs
                .push(("hop".to_string(), format!("{hop_id:016x}")));
        }
        Some(ctx.with_parent(hop_id))
    }

    /// Sets the ambient parent id for spans started with [`Tracer::start`].
    /// The driver sets this to the cycle root's id at the top of a cycle
    /// and clears it (0) when the cycle ends.
    pub fn set_ambient(&self, parent: u64) {
        if let Some(inner) = &self.inner {
            inner.ambient.store(parent, Ordering::Relaxed);
        }
    }

    /// Drains all spans recorded since the last call into a
    /// [`CycleTrace`] tagged `cycle`, retains it, and folds durations
    /// into the per-stage histograms. Call this *after* dropping the
    /// cycle root guard, or the root span lands in the next cycle.
    /// Equivalent to [`Tracer::finish_cycle_flagged`] with `flagged =
    /// false`.
    pub fn finish_cycle(&self, cycle: u64) {
        self.finish_cycle_flagged(cycle, false);
    }

    /// [`Tracer::finish_cycle`] with an explicit interestingness flag
    /// for tail-sampling. Histograms always fold every span. With
    /// `tail_sample` on, full span detail is retained only when the
    /// cycle was `flagged` (errors, sheds) or slow (root duration >
    /// `tail_slow_factor` × the running mean); otherwise only the
    /// cross-process skeleton — spans carrying a trace id — survives,
    /// so stitched fleet traces stay whole under sampling.
    pub fn finish_cycle_flagged(&self, cycle: u64, flagged: bool) {
        let Some(inner) = &self.inner else { return };
        let mut spans = Vec::new();
        while let Some(s) = inner.ring.pop() {
            spans.push(s);
        }
        let root_dur_us = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_us)
            .max()
            .unwrap_or(0);
        let trace_id = self.current_trace_id();
        let mut retained = inner.retained.lock().unwrap();
        for s in &spans {
            retained
                .stages
                .entry(s.stage.clone())
                .or_default()
                .record_us(s.dur_us);
        }
        let mean_us = if retained.cycle_count > 0 {
            retained.cycle_dur_sum_us as f64 / retained.cycle_count as f64
        } else {
            0.0
        };
        retained.cycle_count += 1;
        retained.cycle_dur_sum_us += root_dur_us;
        if let Some(trace_id) = trace_id {
            retained.recent_roots.push_back(WorstCycle {
                cycle,
                dur_us: root_dur_us,
                trace_id,
            });
            while retained.recent_roots.len() > WORST_WINDOW {
                retained.recent_roots.pop_front();
            }
        }
        let slow = root_dur_us as f64 > inner.tail_slow_factor * mean_us;
        let keep_full = !inner.tail_sample || flagged || slow;
        let spans = if keep_full {
            spans
        } else {
            spans.into_iter().filter(|s| s.trace.is_some()).collect()
        };
        retained.cycles.push_back(CycleTrace { cycle, spans });
        while retained.cycles.len() > inner.keep_cycles {
            retained.cycles.pop_front();
        }
    }

    /// The slowest cycle in the recent window, with the trace id that
    /// explains it — the exemplar surfaced in `/metrics` and reports.
    pub fn worst_cycle(&self) -> Option<WorstCycle> {
        let inner = self.inner.as_ref()?;
        let retained = inner.retained.lock().unwrap();
        retained
            .recent_roots
            .iter()
            .max_by_key(|w| w.dur_us)
            .cloned()
    }

    /// A copy of everything `/trace` serves.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot {
                cycles: Vec::new(),
                stages: Vec::new(),
                spans_recorded: 0,
                spans_dropped: 0,
                service: String::new(),
                version: String::new(),
                epoch_unix_us: 0,
            },
            Some(inner) => {
                let (service, version) = inner.identity.lock().expect("identity poisoned").clone();
                let retained = inner.retained.lock().unwrap();
                TraceSnapshot {
                    cycles: retained.cycles.iter().cloned().collect(),
                    stages: summarize(&retained.stages),
                    spans_recorded: inner.recorded.load(Ordering::Relaxed),
                    spans_dropped: inner.ring.dropped(),
                    service,
                    version,
                    epoch_unix_us: inner.epoch_unix_us,
                }
            }
        }
    }

    /// Per-stage latency summaries since daemon start.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => summarize(&inner.retained.lock().unwrap().stages),
        }
    }

    /// Per-stage latency histograms since daemon start (stage →
    /// histogram), for layers that need the raw log2 buckets rather
    /// than [`StageSummary`] quantiles — Prometheus `_bucket` lines and
    /// the daemon's self-flame both feed from here.
    pub fn stage_histograms(&self) -> Vec<(String, LatencyHistogram)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .retained
                .lock()
                .unwrap()
                .stages
                .iter()
                .map(|(stage, h)| (stage.clone(), h.clone()))
                .collect(),
        }
    }

    /// Total spans recorded since daemon start.
    pub fn spans_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.recorded.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Spans dropped because the ring was full.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.ring.dropped()).unwrap_or(0)
    }
}

fn summarize(stages: &BTreeMap<String, LatencyHistogram>) -> Vec<StageSummary> {
    stages
        .iter()
        .map(|(stage, h)| StageSummary {
            stage: stage.clone(),
            count: h.count(),
            p50_us: h.p50_us(),
            p99_us: h.p99_us(),
            max_us: h.max_us(),
            mean_us: h.mean_us(),
        })
        .collect()
}

struct GuardState {
    tracer: Arc<TracerInner>,
    span: Span,
    started: Instant,
}

/// An in-flight span; records itself into the tracer's ring on drop.
#[must_use = "a span measures the scope it lives in; dropping it immediately records a zero-length span"]
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// This span's id, for use as an explicit parent of child spans
    /// started on other threads. Returns 0 for a no-op guard.
    pub fn id(&self) -> u64 {
        self.state.as_ref().map(|s| s.span.id).unwrap_or(0)
    }

    /// Attaches a key/value attribute.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        if let Some(s) = &mut self.state {
            s.span.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Finishes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut s) = self.state.take() {
            s.span.dur_us = s.started.elapsed().as_micros() as u64;
            if s.tracer.ring.push(s.span) {
                s.tracer.recorded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_noop() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut g = t.start(stage::CYCLE, "");
        g.attr("k", "v");
        assert_eq!(g.id(), 0);
        drop(g);
        t.finish_cycle(1);
        let snap = t.snapshot();
        assert!(snap.cycles.is_empty());
        assert_eq!(snap.spans_recorded, 0);
    }

    #[test]
    fn spans_form_a_tree_and_fold_into_stage_histograms() {
        let t = Tracer::new(&TraceConfig::default());
        let root = t.start(stage::CYCLE, "");
        let root_id = root.id();
        t.set_ambient(root_id);
        {
            let scrape = t.start(stage::SCRAPE, "");
            assert_eq!(scrape.span_parent(), root_id);
            let tgt = t.start_with(stage::TARGET, "svc-a", scrape.id());
            assert_eq!(tgt.span_parent(), scrape.id());
            drop(tgt);
            drop(scrape);
        }
        t.set_ambient(0);
        drop(root);
        t.finish_cycle(7);

        let snap = t.snapshot();
        assert_eq!(snap.cycles.len(), 1);
        assert_eq!(snap.cycles[0].cycle, 7);
        assert_eq!(snap.cycles[0].spans.len(), 3);
        // Root finishes last (ring order is completion order).
        assert_eq!(snap.cycles[0].spans[2].stage, stage::CYCLE);
        assert_eq!(snap.cycles[0].spans[2].parent, 0);
        assert_eq!(snap.spans_recorded, 3);
        assert_eq!(snap.spans_dropped, 0);

        let stages: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        assert!(stages.contains(&stage::CYCLE));
        assert!(stages.contains(&stage::SCRAPE));
        assert!(stages.contains(&stage::TARGET));
    }

    #[test]
    fn keep_cycles_bounds_retention() {
        let cfg = TraceConfig {
            keep_cycles: 2,
            ..TraceConfig::default()
        };
        let t = Tracer::new(&cfg);
        for c in 0..5 {
            t.start(stage::CYCLE, "").finish();
            t.finish_cycle(c);
        }
        let snap = t.snapshot();
        assert_eq!(snap.cycles.len(), 2);
        assert_eq!(snap.cycles[0].cycle, 3);
        assert_eq!(snap.cycles[1].cycle, 4);
        // Histograms keep accumulating past retention.
        let cycle_stage = snap
            .stages
            .iter()
            .find(|s| s.stage == stage::CYCLE)
            .unwrap();
        assert_eq!(cycle_stage.count, 5);
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let cfg = TraceConfig {
            ring_capacity: 4,
            ..TraceConfig::default()
        };
        let t = Tracer::new(&cfg);
        for _ in 0..10 {
            t.start(stage::TARGET, "x").finish();
        }
        t.finish_cycle(1);
        let snap = t.snapshot();
        assert_eq!(snap.spans_recorded, 4);
        assert_eq!(snap.spans_dropped, 6);
        assert_eq!(snap.cycles[0].spans.len(), 4);
    }

    #[test]
    fn attrs_survive_into_the_trace() {
        let t = Tracer::new(&TraceConfig::default());
        let mut g = t.start(stage::TARGET, "svc-b");
        g.attr("attempts", 2);
        g.attr("bytes", 512);
        drop(g);
        t.finish_cycle(1);
        let snap = t.snapshot();
        let span = &snap.cycles[0].spans[0];
        assert_eq!(span.target, "svc-b");
        assert_eq!(
            span.attrs,
            vec![
                ("attempts".to_string(), "2".to_string()),
                ("bytes".to_string(), "512".to_string())
            ]
        );
    }

    impl SpanGuard {
        fn span_parent(&self) -> u64 {
            self.state.as_ref().map(|s| s.span.parent).unwrap_or(0)
        }
    }

    #[test]
    fn begin_cycle_mints_then_adopts_remote_context() {
        let t = Tracer::new(&TraceConfig::default());
        let minted = t.begin_cycle().expect("enabled tracer yields a context");
        assert_eq!(
            t.current_trace_id().as_deref(),
            Some(minted.trace_id.as_str())
        );

        // A root span opened under the cycle carries its trace id.
        let root = t.start(stage::CYCLE, "");
        drop(root);
        t.finish_cycle(1);
        let snap = t.snapshot();
        assert_eq!(
            snap.cycles[0].spans[0].trace.as_deref(),
            Some(minted.trace_id.as_str())
        );

        // Adopting a remote context re-parents the *next* cycle.
        let remote = TraceContext::mint();
        t.adopt_remote(&remote);
        let joined = t.begin_cycle().unwrap();
        assert_eq!(joined.trace_id, remote.trace_id);
        // And with nothing pending the cycle after mints fresh again.
        let fresh = t.begin_cycle().unwrap();
        assert_ne!(fresh.trace_id, remote.trace_id);
    }

    #[test]
    fn serve_span_records_remote_parent_and_hop_stamps_the_client_span() {
        let t = Tracer::new(&TraceConfig::default());
        let ctx = t.begin_cycle().unwrap();
        let mut client = t.start(stage::TARGET, "peer-0");
        let hop_ctx = t.hop(&mut client).expect("open cycle yields a hop");
        assert_eq!(hop_ctx.trace_id, ctx.trace_id);
        assert_ne!(hop_ctx.parent_span, 0);
        drop(client);

        // The receiver parents its serve span under the hop context.
        let server = Tracer::new(&TraceConfig::default());
        let g = server.start_remote(stage::SERVE, "/api/snapshot", &hop_ctx);
        drop(g);
        server.finish_cycle(1);
        t.finish_cycle(1);

        let client_span = &t.snapshot().cycles[0].spans[0];
        assert_eq!(client_span.trace.as_deref(), Some(ctx.trace_id.as_str()));
        let hop_hex = client_span
            .attrs
            .iter()
            .find(|(k, _)| k == "hop")
            .map(|(_, v)| v.clone())
            .expect("hop attr stamped");
        assert_eq!(hop_hex, format!("{:016x}", hop_ctx.parent_span));

        let serve_span = &server.snapshot().cycles[0].spans[0];
        assert_eq!(serve_span.parent, 0);
        assert_eq!(serve_span.trace.as_deref(), Some(ctx.trace_id.as_str()));
        assert_eq!(serve_span.remote_parent, Some(hop_ctx.parent_span));

        // A disabled tracer (or no open cycle) yields no hop at all.
        let idle = Tracer::new(&TraceConfig::default());
        let mut g = idle.start(stage::TARGET, "x");
        assert!(idle.hop(&mut g).is_none());
        g.finish();
    }

    #[test]
    fn tail_sampling_keeps_flagged_slow_and_skeleton_spans() {
        let cfg = TraceConfig {
            tail_sample: true,
            tail_slow_factor: 1_000_000.0, // nothing is "slow" in a unit test
            ..TraceConfig::default()
        };
        let t = Tracer::new(&cfg);

        // Cycle 1: mean is still 0, so the first cycle counts as slow
        // and keeps full detail (the sleep guarantees a nonzero root
        // duration — a 0µs root would not beat the 0 mean).
        t.begin_cycle();
        let root = t.start(stage::CYCLE, "");
        let child = t.start_with(stage::SCRAPE, "", root.id());
        drop(child);
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(root);
        t.finish_cycle(1);

        // Cycle 2: quiet — only the skeleton (trace-carrying root)
        // survives, but histograms still folded the child.
        t.begin_cycle();
        let root = t.start(stage::CYCLE, "");
        let child = t.start_with(stage::SCRAPE, "", root.id());
        drop(child);
        drop(root);
        t.finish_cycle(2);

        // Cycle 3: flagged — full detail again.
        t.begin_cycle();
        let root = t.start(stage::CYCLE, "");
        let child = t.start_with(stage::SCRAPE, "", root.id());
        drop(child);
        drop(root);
        t.finish_cycle_flagged(3, true);

        let snap = t.snapshot();
        assert_eq!(snap.cycles[0].spans.len(), 2, "first cycle keeps detail");
        let sampled = &snap.cycles[1];
        assert_eq!(
            sampled.spans.len(),
            1,
            "quiet cycle keeps only the skeleton"
        );
        assert_eq!(sampled.spans[0].stage, stage::CYCLE);
        assert!(sampled.spans[0].trace.is_some());
        assert_eq!(snap.cycles[2].spans.len(), 2, "flagged cycle keeps detail");
        let scrape = snap
            .stages
            .iter()
            .find(|s| s.stage == stage::SCRAPE)
            .unwrap();
        assert_eq!(scrape.count, 3, "histograms fold sampled-away spans too");
    }

    #[test]
    fn worst_cycle_exemplar_tracks_the_slowest_recent_root() {
        let t = Tracer::new(&TraceConfig::default());
        assert!(t.worst_cycle().is_none());
        let mut worst_trace = String::new();
        for cycle in 1..=3u64 {
            let ctx = t.begin_cycle().unwrap();
            let root = t.start(stage::CYCLE, "");
            if cycle == 2 {
                worst_trace = ctx.trace_id.clone();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            drop(root);
            t.finish_cycle(cycle);
        }
        let worst = t.worst_cycle().expect("cycles ran");
        assert_eq!(worst.cycle, 2);
        assert_eq!(worst.trace_id, worst_trace);
        assert!(worst.dur_us >= 5_000);
    }

    #[test]
    fn snapshot_carries_service_identity() {
        let t = Tracer::new(&TraceConfig::default());
        t.set_service("leakprofd shard 1/3", "1.2.3");
        let snap = t.snapshot();
        assert_eq!(snap.service, "leakprofd shard 1/3");
        assert_eq!(snap.version, "1.2.3");
        assert!(snap.epoch_unix_us > 0);
        let disabled = Tracer::disabled().snapshot();
        assert_eq!(disabled.epoch_unix_us, 0);
    }
}
