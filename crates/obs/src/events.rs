//! Bounded structured event log: the daemon's replacement for ad-hoc
//! stderr prints.
//!
//! Every entry carries a level, a target (which subsystem spoke), the
//! message, and — when the process is inside a traced cycle — the
//! distributed trace id and ambient span id, so a `/logs` line links
//! straight back to the stitched timeline that explains it. Entries go
//! through the same lock-free [`Ring`] the tracer uses (drop-newest,
//! counted), then into a bounded retained deque served at `/logs`;
//! nothing here can block or grow without bound. Warnings and errors
//! still echo to stderr so an operator tailing the process loses
//! nothing by the migration.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::ring::Ring;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics.
    Debug,
    /// Normal operational milestones.
    Info,
    /// Degraded but self-healing conditions.
    Warn,
    /// Failures that lost work.
    Error,
}

impl Level {
    /// The lowercase wire form used in serialized events.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses the wire form back into a level (case-insensitive);
    /// `None` for anything that is not one of the four names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One structured log entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Event {
    /// Monotonic per-process sequence number (gaps = ring drops).
    pub seq: u64,
    /// Microseconds since the log was created.
    pub ts_us: u64,
    /// Severity as its lowercase name (`debug`/`info`/`warn`/`error`).
    pub level: String,
    /// Which subsystem emitted the event (e.g. `daemon`, `fleet`).
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Distributed trace id active when the event fired, if any.
    pub trace: Option<String>,
    /// Ambient span id active when the event fired (0 = none).
    pub span: u64,
}

/// Event-log tuning knobs.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Lock-free staging ring capacity (drop-newest beyond this).
    pub ring_capacity: usize,
    /// Most recent entries retained for `/logs`.
    pub keep: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            ring_capacity: 1024,
            keep: 256,
        }
    }
}

struct EventInner {
    epoch: Instant,
    ring: Ring<Event>,
    seq: AtomicU64,
    recorded: AtomicU64,
    keep: usize,
    /// (trace id, ambient span) stamped onto subsequent events.
    ctx: Mutex<(Option<String>, u64)>,
    retained: Mutex<VecDeque<Event>>,
}

/// The bounded structured event log. Cheap to clone (`Arc` inside);
/// a disabled log records nothing and allocates nothing per call
/// beyond the formatted message the caller already built.
#[derive(Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<EventInner>>,
}

impl EventLog {
    /// Creates a recording log from `config`.
    pub fn new(config: EventConfig) -> EventLog {
        EventLog {
            inner: Some(Arc::new(EventInner {
                epoch: Instant::now(),
                ring: Ring::new(config.ring_capacity),
                seq: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                keep: config.keep.max(1),
                ctx: Mutex::new((None, 0)),
                retained: Mutex::new(VecDeque::new()),
            })),
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> EventLog {
        EventLog { inner: None }
    }

    /// Whether this log records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the trace context stamped onto subsequent events (the
    /// daemon calls this when a cycle begins, and clears it at cycle
    /// end with `(None, 0)`).
    pub fn set_context(&self, trace: Option<String>, span: u64) {
        if let Some(inner) = &self.inner {
            *inner.ctx.lock().expect("event ctx poisoned") = (trace, span);
        }
    }

    /// Records one event. Warnings and errors also echo to stderr so
    /// operators tailing the process keep their signal.
    pub fn log(&self, level: Level, target: &str, message: impl Into<String>) {
        let message = message.into();
        if level >= Level::Warn {
            eprintln!("{target}: {message}");
        }
        let Some(inner) = &self.inner else {
            return;
        };
        let (trace, span) = inner.ctx.lock().expect("event ctx poisoned").clone();
        let event = Event {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: inner.epoch.elapsed().as_micros() as u64,
            level: level.as_str().to_string(),
            target: target.to_string(),
            message,
            trace,
            span,
        };
        if inner.ring.push(event) {
            inner.recorded.fetch_add(1, Ordering::Relaxed);
        }
        self.fold();
    }

    /// Records a debug event.
    pub fn debug(&self, target: &str, message: impl Into<String>) {
        self.log(Level::Debug, target, message);
    }

    /// Records an info event.
    pub fn info(&self, target: &str, message: impl Into<String>) {
        self.log(Level::Info, target, message);
    }

    /// Records a warning (also echoed to stderr).
    pub fn warn(&self, target: &str, message: impl Into<String>) {
        self.log(Level::Warn, target, message);
    }

    /// Records an error (also echoed to stderr).
    pub fn error(&self, target: &str, message: impl Into<String>) {
        self.log(Level::Error, target, message);
    }

    /// Drains the staging ring into the bounded retained deque.
    fn fold(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut retained = inner.retained.lock().expect("event retained poisoned");
        while let Some(e) = inner.ring.pop() {
            if retained.len() >= inner.keep {
                retained.pop_front();
            }
            retained.push_back(e);
        }
    }

    /// The most recent retained events, oldest first (the `/logs`
    /// document).
    pub fn recent(&self) -> Vec<Event> {
        self.fold();
        match &self.inner {
            Some(inner) => inner
                .retained
                .lock()
                .expect("event retained poisoned")
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Retained events at or above `min`, capped to the most recent
    /// `limit`, oldest first — `/logs?level=&limit=`, so operators can
    /// pull only Warn+ without scraping the whole retained deque. An
    /// event whose level string does not parse (foreign producer) is
    /// conservatively kept.
    pub fn recent_filtered(&self, min: Level, limit: usize) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .recent()
            .into_iter()
            .filter(|e| Level::parse(&e.level).is_none_or(|l| l >= min))
            .collect();
        if events.len() > limit {
            events.drain(..events.len() - limit);
        }
        events
    }

    /// Events recorded (admitted to the ring) so far.
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.recorded.load(Ordering::Relaxed))
    }

    /// Events dropped because the staging ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_is_noop() {
        let log = EventLog::disabled();
        log.info("daemon", "ignored");
        log.error("daemon", "also ignored (but echoed)");
        assert!(!log.enabled());
        assert!(log.recent().is_empty());
        assert_eq!(log.recorded(), 0);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn events_carry_levels_and_trace_context() {
        let log = EventLog::new(EventConfig::default());
        log.info("daemon", "cycle started");
        log.set_context(Some("aa".repeat(16)), 7);
        log.warn("scrape", "target x timed out");
        log.set_context(None, 0);
        log.debug("daemon", "cycle ended");

        let events = log.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].level, "info");
        assert_eq!(events[0].trace, None);
        assert_eq!(events[1].level, "warn");
        assert_eq!(events[1].target, "scrape");
        assert_eq!(events[1].trace.as_deref(), Some(&*"aa".repeat(16)));
        assert_eq!(events[1].span, 7);
        assert_eq!(events[2].trace, None);
        assert_eq!(events[2].span, 0);
        // Sequence numbers are contiguous when nothing dropped.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn retention_is_bounded_and_drops_are_counted() {
        let log = EventLog::new(EventConfig {
            ring_capacity: 1024,
            keep: 4,
        });
        for i in 0..10 {
            log.info("t", format!("e{i}"));
        }
        let events = log.recent();
        assert_eq!(events.len(), 4, "retention caps at keep");
        assert_eq!(events[0].message, "e6");
        assert_eq!(events[3].message, "e9");

        // A tiny ring that is never folded must drop, visibly. The log
        // folds on every `log` call, so drops require pushing directly.
        let tiny = EventLog::new(EventConfig {
            ring_capacity: 2,
            keep: 8,
        });
        let inner = tiny.inner.as_ref().unwrap();
        for i in 0..5u64 {
            let _ = inner.ring.push(Event {
                seq: i,
                ts_us: 0,
                level: "info".into(),
                target: "t".into(),
                message: String::new(),
                trace: None,
                span: 0,
            });
        }
        assert_eq!(tiny.dropped(), 3);
    }

    #[test]
    fn level_parse_round_trips_and_orders() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("fatal"), None);
        assert!(Level::Warn > Level::Info);
    }

    #[test]
    fn recent_filtered_drops_below_min_and_caps_to_newest() {
        let log = EventLog::new(EventConfig::default());
        log.debug("t", "d0");
        log.info("t", "i0");
        log.warn("t", "w0");
        log.error("t", "e0");
        log.warn("t", "w1");

        let warns = log.recent_filtered(Level::Warn, usize::MAX);
        assert_eq!(
            warns.iter().map(|e| e.message.as_str()).collect::<Vec<_>>(),
            vec!["w0", "e0", "w1"],
            "oldest first, Warn and above only"
        );
        let capped = log.recent_filtered(Level::Warn, 2);
        assert_eq!(
            capped
                .iter()
                .map(|e| e.message.as_str())
                .collect::<Vec<_>>(),
            vec!["e0", "w1"],
            "limit keeps the newest matches"
        );
        assert_eq!(log.recent_filtered(Level::Debug, usize::MAX).len(), 5);
        assert!(log.recent_filtered(Level::Error, 0).is_empty());
    }

    #[test]
    fn events_serialize_round_trip() {
        let log = EventLog::new(EventConfig::default());
        log.set_context(Some("bb".repeat(16)), 3);
        log.error("wal", "append failed: disk full");
        let events = log.recent();
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<Event> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }
}
