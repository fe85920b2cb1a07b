//! Spans recorded by the benchmark around its calls into each layer.
//! Spans stay in memory until the run ends and are then written out as
//! a Chrome trace-event file (loadable in Perfetto).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc::thread_allocs;
use crate::stats::{median, Dist};

/// One finished span.
pub struct Span {
    /// Layer call, `<module>.<call>` (for example `scrape.fetch`).
    pub name: &'static str,
    /// The operation (cycle, poll or package index) the span belongs to;
    /// every span of one operation shares it.
    pub op: u64,
    /// The enclosing span's name (`None` for an operation's root).
    pub parent: Option<&'static str>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: u32,
    pub start_us: f64,
    pub dur_us: f64,
    /// Allocations the recording thread made inside the span.
    pub allocs: u64,
}

/// An open span; [`Recorder::end`] closes it.
pub struct Open {
    name: &'static str,
    op: u64,
    parent: Option<&'static str>,
    thread: u32,
    start: Instant,
    allocs: u64,
}

/// In-memory span store shared by every thread of a traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn begin(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<&'static str>,
        thread: u32,
    ) -> Open {
        Open {
            name,
            op,
            parent,
            thread,
            allocs: thread_allocs(),
            start: Instant::now(),
        }
    }

    /// Closes `open`.
    pub fn end(&self, open: Open) {
        let dur_us = open.start.elapsed().as_secs_f64() * 1e6;
        let allocs = thread_allocs() - open.allocs;
        let start_us = open.start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.lock().expect("span store poisoned").push(Span {
            name: open.name,
            op: open.op,
            parent: open.parent,
            thread: open.thread,
            start_us,
            dur_us,
            allocs,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, op, parent, 0);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }
}

/// Per-call durations (µs) and allocation counts of every span name.
pub struct Layers {
    durs: BTreeMap<&'static str, Vec<f64>>,
    allocs: BTreeMap<&'static str, Vec<f64>>,
    residual: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Groups `spans` by name. For each root span (no parent), also
    /// computes the per-operation residual: the root's duration minus
    /// the durations of its direct children on the same thread, which is
    /// the time no layer span accounts for.
    pub fn from_spans(spans: &[Span]) -> Layers {
        let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut allocs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut children: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for s in spans {
            durs.entry(s.name).or_default().push(s.dur_us);
            allocs.entry(s.name).or_default().push(s.allocs as f64);
            if let Some(p) = s.parent {
                if s.thread == 0 {
                    *children.entry((p, s.op)).or_default() += s.dur_us;
                }
            }
        }
        let mut residual: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            let covered = children.get(&(s.name, s.op)).copied().unwrap_or(0.0);
            residual.entry(s.name).or_default().push(s.dur_us - covered);
        }
        Layers {
            durs,
            allocs,
            residual,
        }
    }

    /// Median duration of `name` per call, in µs (0 if never called).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durs.get(name).map_or(0.0, |v| median(v))
    }

    /// Median allocations of `name` per call (0 if never called).
    pub fn allocs(&self, name: &str) -> f64 {
        self.allocs.get(name).map_or(0.0, |v| median(v))
    }

    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.durs.get(name).map_or(0, Vec::len)
    }

    /// Median per-operation residual of root span `name`, in µs.
    pub fn residual_us(&self, name: &str) -> f64 {
        self.residual.get(name).map_or(0.0, |v| median(v))
    }

    /// Durations of `name` as a distribution, in µs.
    pub fn dist_us(&self, name: &str) -> Dist {
        Dist::new(self.durs.get(name).cloned().unwrap_or_default())
    }
}

/// Writes `spans` to `path` as Chrome trace events (`ph: "X"`).
pub fn write_chrome(spans: &[Span], path: &Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 128 + 16);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"{}\",\"allocs\":{}}}}}{sep}",
            s.name,
            s.thread,
            s.start_us,
            s.dur_us,
            s.op,
            s.parent.unwrap_or(""),
            s.allocs
        );
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
