//! Scrape-health telemetry: latency histograms and per-cycle counters
//! the daemon exposes on its own `/metrics` endpoint and in `status`.

use leakprof::Report;
use obs::{EventLog, LatencyHistogram, Tracer};
use serde::{Deserialize, Serialize};
use shardmap::ShardIdentity;

/// Builds Prometheus text exposition incrementally, enforcing the
/// format every scraper expects: each metric family is announced with
/// `# HELP` and `# TYPE` exactly once, immediately before its samples,
/// and label values are escaped per the exposition grammar.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Announces a metric family (`kind` is `counter`, `gauge`,
    /// `summary`, or `histogram`). Call once, before the family's
    /// samples.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one sample line. `name` may extend the family name with a
    /// suffix (`_count`/`_sum` for summaries).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        use std::fmt::Write as _;
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    let _ = write!(self.out, ",");
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            let _ = write!(self.out, "}}");
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// Emits one histogram's full sample set: cumulative `_bucket`
    /// lines (power-of-two `le` upper bounds, then the mandatory
    /// `le="+Inf"` bucket equal to the count), `_sum`, and `_count`.
    /// The caller announces the family (kind `histogram`) once; the
    /// `le` label is appended after `labels`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        let bucket = format!("{name}_bucket");
        for (le, cum) in h.cumulative_buckets() {
            let le = le.to_string();
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", le.as_str()));
            self.sample(&bucket, &with_le, cum);
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        self.sample(&bucket, &with_inf, h.count());
        self.sample(&format!("{name}_sum"), labels, h.sum_us());
        self.sample(&format!("{name}_count"), labels, h.count());
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }

    /// `leakprofd_suspect_rms`: each ranked site's fleet-wide RMS. Like
    /// every family, it is declared only when it has a sample — HELP
    /// and TYPE with no series is non-conformant exposition.
    pub fn suspect_rms(&mut self, report: Option<&Report>) {
        const NAME: &str = "leakprofd_suspect_rms";
        let Some(report) = report.filter(|r| !r.suspects.is_empty()) else {
            return;
        };
        self.family(
            NAME,
            "gauge",
            "Fleet-wide RMS blocked-goroutine impact per suspect site.",
        );
        for s in &report.suspects {
            self.sample(NAME, &[("site", &s.stats.op.to_string())], s.stats.rms);
        }
    }

    /// The process's own families, shared by every role: the
    /// `leakprofd_build_info` gauge (labelled with `role` and, when
    /// sharded, `shard`), `leakprofd_obs_dropped_total` per ring, and
    /// the `leakprofd_worst_cycle_us` exemplar naming the slowest
    /// recent cycle's trace (once a traced cycle has completed).
    pub fn process_info(
        &mut self,
        role: &str,
        shard: Option<&ShardIdentity>,
        tracer: &Tracer,
        events: &EventLog,
    ) {
        const BUILD: &str = "leakprofd_build_info";
        const DROPPED: &str = "leakprofd_obs_dropped_total";
        const WORST: &str = "leakprofd_worst_cycle_us";
        self.family(
            BUILD,
            "gauge",
            "Build metadata; always 1. Version, role and shard ride the labels.",
        );
        let shard = shard.map(|id| format!("{}/{}", id.shard, id.of));
        let mut labels = vec![("version", env!("CARGO_PKG_VERSION")), ("role", role)];
        if let Some(shard) = &shard {
            labels.push(("shard", shard));
        }
        self.sample(BUILD, &labels, 1u64);
        self.family(
            DROPPED,
            "counter",
            "Observability records dropped at full rings, by kind.",
        );
        self.sample(DROPPED, &[("kind", "span")], tracer.spans_dropped());
        self.sample(DROPPED, &[("kind", "event")], events.dropped());
        if let Some(w) = tracer.worst_cycle() {
            self.family(
                WORST,
                "gauge",
                "Duration of the slowest recent cycle or poll; its trace id rides the labels.",
            );
            self.sample(
                WORST,
                &[("trace_id", &w.trace_id), ("cycle", &w.cycle.to_string())],
                w.dur_us,
            );
        }
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Aggregate health of one scrape cycle.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CycleStats {
    /// Targets attempted this cycle.
    pub targets: usize,
    /// Targets that yielded a parsed profile.
    pub succeeded: usize,
    /// Targets that exhausted retries.
    pub failed: usize,
    /// Targets skipped by an open circuit breaker (not attempted).
    pub skipped: usize,
    /// Extra attempts beyond the first, summed over targets.
    pub retries: u64,
    /// Wall-clock duration of the whole cycle in milliseconds.
    pub wall_ms: f64,
    /// Per-request latencies (successful attempts only).
    pub latency: LatencyHistogram,
}

impl CycleStats {
    /// Fraction of attempted targets that succeeded (1.0 for an empty
    /// cycle; quarantined targets are not attempted and do not count).
    pub fn success_rate(&self) -> f64 {
        let attempted = self.targets.saturating_sub(self.skipped);
        if attempted == 0 {
            1.0
        } else {
            self.succeeded as f64 / attempted as f64
        }
    }

    /// One-line human summary for CLI output.
    pub fn render(&self) -> String {
        format!(
            "scraped {}/{} targets ({} quarantined, {} retries, {:.1}% ok) in {:.1} ms; latency p50 {} µs p99 {} µs max {} µs",
            self.succeeded,
            self.targets,
            self.skipped,
            self.retries,
            100.0 * self.success_rate(),
            self.wall_ms,
            self.latency.p50_us(),
            self.latency.p99_us(),
            self.latency.max_us(),
        )
    }
}

/// Running totals across every cycle a daemon has executed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HealthCounters {
    /// Completed scrape cycles.
    pub cycles: u64,
    /// Successful target scrapes, summed over cycles.
    pub scrapes_ok: u64,
    /// Failed target scrapes (retries exhausted), summed over cycles.
    pub scrapes_failed: u64,
    /// Targets skipped by open circuit breakers, summed over cycles.
    pub scrapes_skipped: u64,
    /// Retry attempts, summed over cycles.
    pub retries: u64,
    /// All-time request latency distribution.
    pub latency: LatencyHistogram,
}

impl HealthCounters {
    /// Folds one cycle's stats into the running totals.
    pub fn absorb(&mut self, cycle: &CycleStats) {
        self.cycles += 1;
        self.scrapes_ok += cycle.succeeded as u64;
        self.scrapes_failed += cycle.failed as u64;
        self.scrapes_skipped += cycle.skipped as u64;
        self.retries += cycle.retries;
        self.latency.merge(&cycle.latency);
    }

    /// All-time scrape success rate (1.0 before any scrape).
    pub fn success_rate(&self) -> f64 {
        let total = self.scrapes_ok + self.scrapes_failed;
        if total == 0 {
            1.0
        } else {
            self.scrapes_ok as f64 / total as f64
        }
    }

    /// Writes this struct's metric families into an exposition being
    /// built (so [`crate::Daemon::metrics_text`] can extend it).
    pub fn render_into(&self, p: &mut PromText) {
        p.family(
            "leakprofd_cycles_total",
            "counter",
            "Completed scrape cycles.",
        );
        p.sample("leakprofd_cycles_total", &[], self.cycles);
        p.family(
            "leakprofd_scrapes_total",
            "counter",
            "Target scrapes by result.",
        );
        p.sample(
            "leakprofd_scrapes_total",
            &[("result", "ok")],
            self.scrapes_ok,
        );
        p.sample(
            "leakprofd_scrapes_total",
            &[("result", "failed")],
            self.scrapes_failed,
        );
        p.sample(
            "leakprofd_scrapes_total",
            &[("result", "skipped")],
            self.scrapes_skipped,
        );
        p.family(
            "leakprofd_retries_total",
            "counter",
            "Scrape retry attempts beyond the first.",
        );
        p.sample("leakprofd_retries_total", &[], self.retries);
        p.family(
            "leakprofd_scrape_latency_us",
            "summary",
            "Per-request scrape latency in microseconds.",
        );
        p.sample(
            "leakprofd_scrape_latency_us",
            &[("quantile", "0.5")],
            self.latency.p50_us(),
        );
        p.sample(
            "leakprofd_scrape_latency_us",
            &[("quantile", "0.99")],
            self.latency.p99_us(),
        );
        p.sample(
            "leakprofd_scrape_latency_us_count",
            &[],
            self.latency.count(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_absorb_cycles() {
        let mut totals = HealthCounters::default();
        let mut cycle = CycleStats {
            targets: 10,
            succeeded: 9,
            failed: 1,
            retries: 3,
            ..Default::default()
        };
        cycle.latency.record(Duration::from_micros(200));
        totals.absorb(&cycle);
        totals.absorb(&cycle);
        assert_eq!(totals.cycles, 2);
        assert_eq!(totals.scrapes_ok, 18);
        assert!((totals.success_rate() - 0.9).abs() < 1e-9);
        let mut p = PromText::new();
        totals.render_into(&mut p);
        let text = p.finish();
        assert!(text.contains("# HELP leakprofd_cycles_total "));
        assert!(text.contains("# TYPE leakprofd_cycles_total counter"));
        assert!(text.contains("leakprofd_cycles_total 2"));
        assert!(text.contains("result=\"ok\"} 18"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.family("x", "gauge", "test");
        p.sample("x", &[("site", "a\"b\\c\nd")], 1);
        let text = p.finish();
        assert!(text.contains("x{site=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
    }
}
