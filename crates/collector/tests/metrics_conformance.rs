//! `/metrics` conformance: the daemon's exposition must follow the
//! Prometheus text format line grammar — every family announced with
//! `# HELP` and `# TYPE` before its samples, all names under the
//! `leakprofd_` prefix, family lines grouped, label syntax and sample
//! values well-formed. The checker below parses the grammar directly
//! rather than substring-matching, so a malformed line anywhere fails.

use std::collections::BTreeMap;

use collector::{Daemon, DaemonConfig, DemoFleet, PromText};
use leakprof::LeakProf;

#[derive(Default)]
struct Family {
    kind: String,
    has_help: bool,
    samples: usize,
    finished: bool,
}

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `{k="v",...}`-style labels, returning the byte length
/// consumed (including braces). Panics with `ctx` on malformed syntax.
fn parse_labels(s: &str, ctx: &str) -> usize {
    let bytes = s.as_bytes();
    assert_eq!(bytes[0], b'{', "{ctx}: labels must start with '{{'");
    let mut i = 1;
    loop {
        let name_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let name = &s[name_start..i];
        assert!(is_label_name(name), "{ctx}: bad label name {name:?}");
        i += 1; // '='
        assert_eq!(
            bytes.get(i),
            Some(&b'"'),
            "{ctx}: label value must be quoted"
        );
        i += 1;
        while i < bytes.len() && bytes[i] != b'"' {
            if bytes[i] == b'\\' {
                let next = bytes.get(i + 1);
                assert!(
                    matches!(next, Some(b'\\') | Some(b'"') | Some(b'n')),
                    "{ctx}: bad escape in label value"
                );
                i += 1;
            }
            i += 1;
        }
        assert_eq!(bytes.get(i), Some(&b'"'), "{ctx}: unterminated label value");
        i += 1;
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return i + 1,
            other => panic!("{ctx}: expected ',' or '}}' after label, got {other:?}"),
        }
    }
}

/// The family a sample name belongs to: itself, or — for summary and
/// histogram `_count`/`_sum` lines, and histogram `_bucket` lines —
/// the declared base family.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, Family>) -> &'a str {
    if families.contains_key(name) {
        return name;
    }
    for suffix in ["_count", "_sum"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families
                .get(base)
                .is_some_and(|f| f.kind == "summary" || f.kind == "histogram")
            {
                return base;
            }
        }
    }
    if let Some(base) = name.strip_suffix("_bucket") {
        if families.get(base).is_some_and(|f| f.kind == "histogram") {
            return base;
        }
    }
    panic!("sample {name} has no # TYPE declaration");
}

fn assert_conformant(text: &str) {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (n, line) in text.lines().enumerate() {
        let ctx = format!("line {}: {line:?}", n + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("{ctx}: HELP without text"));
            assert!(is_metric_name(name), "{ctx}: bad family name");
            assert!(
                name.starts_with("leakprofd_"),
                "{ctx}: family missing leakprofd_ prefix"
            );
            assert!(!help.trim().is_empty(), "{ctx}: empty HELP text");
            let fam = families.entry(name.to_string()).or_default();
            assert!(!fam.has_help, "{ctx}: duplicate HELP for {name}");
            assert_eq!(fam.samples, 0, "{ctx}: HELP must precede samples of {name}");
            fam.has_help = true;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("{ctx}: TYPE without kind"));
            assert!(is_metric_name(name), "{ctx}: bad family name");
            assert!(
                name.starts_with("leakprofd_"),
                "{ctx}: family missing leakprofd_ prefix"
            );
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ),
                "{ctx}: unknown TYPE kind {kind:?}"
            );
            let fam = families.entry(name.to_string()).or_default();
            assert!(fam.kind.is_empty(), "{ctx}: duplicate TYPE for {name}");
            assert_eq!(fam.samples, 0, "{ctx}: TYPE must precede samples of {name}");
            fam.kind = kind.to_string();
        } else if line.starts_with('#') {
            panic!("{ctx}: unexpected comment line");
        } else {
            let name_end = line
                .find(['{', ' '])
                .unwrap_or_else(|| panic!("{ctx}: sample without value"));
            let name = &line[..name_end];
            assert!(is_metric_name(name), "{ctx}: bad sample name");
            let mut rest = &line[name_end..];
            if rest.starts_with('{') {
                let consumed = parse_labels(rest, &ctx);
                rest = &rest[consumed..];
            }
            let value = rest.trim_start();
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{ctx}: sample value {value:?} is not a number"));
            let base = family_of(name, &families).to_string();
            if name.ends_with("_bucket")
                && families.get(&base).is_some_and(|f| f.kind == "histogram")
            {
                assert!(
                    line.contains("le=\""),
                    "{ctx}: histogram _bucket sample without an le label"
                );
            }
            {
                let fam = families.get(&base).expect("family exists");
                assert!(!fam.kind.is_empty(), "{ctx}: sample before TYPE");
                assert!(fam.has_help, "{ctx}: family {base} has no HELP");
                assert!(
                    !fam.finished,
                    "{ctx}: family {base} lines are not contiguous"
                );
            }
            if let Some(prev) = &current {
                if *prev != base {
                    families.get_mut(prev).expect("family exists").finished = true;
                }
            }
            families.get_mut(&base).expect("family exists").samples += 1;
            current = Some(base);
        }
    }
    for (name, fam) in &families {
        assert!(fam.samples > 0, "family {name} declared but has no samples");
    }
    assert!(!families.is_empty(), "no families at all");
}

#[test]
fn fresh_daemon_metrics_conform() {
    let daemon = Daemon::new(DaemonConfig::default(), LeakProf::default(), vec![]).unwrap();
    assert_conformant(&daemon.metrics_text());
}

#[test]
fn busy_daemon_metrics_conform_and_cover_every_subsystem() {
    let demo = DemoFleet::build(6, 2, 7);
    let server = demo.hub.serve("127.0.0.1:0", 2).unwrap();
    let targets = demo.targets(server.addr());
    let config = DaemonConfig {
        adaptive: collector::AdaptiveConfig::enabled(100, 4000, 1000),
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(
        config,
        LeakProf::new(leakprof::Config {
            threshold: 1,
            ast_filter: false,
            top_n: 5,
        }),
        targets,
    )
    .unwrap();
    for _ in 0..4 {
        daemon.run_cycle();
    }
    let text = daemon.metrics_text();
    assert_conformant(&text);
    for family in [
        "leakprofd_cycles_total",
        "leakprofd_scrapes_total",
        "leakprofd_scrape_latency_us",
        "leakprofd_breaker_targets",
        "leakprofd_reports_total",
        "leakprofd_conn_requests_total",
        "leakprofd_spans_total",
        "leakprofd_stage_latency_us",
        "leakprofd_suspect_rms",
        "leakprofd_interval_ms",
        "leakprofd_interval_changes_total",
        "leakprofd_ts_series",
        "leakprofd_ts_appends_total",
        "leakprofd_build_info",
        "leakprofd_obs_dropped_total",
        "leakprofd_worst_cycle_us",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing family {family}"
        );
    }
    // The obs drop counter carries one series per record kind, and the
    // build gauge pins the crate version in its labels.
    assert!(text.contains("leakprofd_obs_dropped_total{kind=\"span\"}"));
    assert!(text.contains("leakprofd_obs_dropped_total{kind=\"event\"}"));
    assert!(text.contains(&format!(
        "leakprofd_build_info{{version=\"{}\",role=\"daemon\"}} 1",
        env!("CARGO_PKG_VERSION")
    )));
    // The worst-cycle exemplar names the trace to pull up in Perfetto.
    assert!(text.contains("leakprofd_worst_cycle_us{trace_id=\""));
}

#[test]
fn ingest_enabled_daemon_exposes_conformant_push_families() {
    let mut daemon = Daemon::new(
        DaemonConfig {
            ingest: Some(collector::IngestConfig::default()),
            ..DaemonConfig::default()
        },
        LeakProf::default(),
        vec![],
    )
    .unwrap();
    // Exercise every counter: admitted, coalesced (same instance
    // twice, newer capture), bad request, and a drain.
    let tier = std::sync::Arc::clone(daemon.ingest_tier().unwrap());
    tier.pause_absorbers(true);
    for captured_at in [100u64, 200] {
        let p = gosim::GoroutineProfile {
            instance: "pay-0".into(),
            captured_at,
            goroutines: vec![],
        };
        assert_eq!(
            tier.handle_push(serde_json::to_string(&p).unwrap().as_bytes())
                .status,
            200
        );
    }
    tier.handle_push(b"not json");
    tier.pause_absorbers(false);
    assert!(tier.quiesce(std::time::Duration::from_secs(5)));
    daemon.run_cycle();
    let text = daemon.metrics_text();
    assert_conformant(&text);
    for family in [
        "leakprofd_ingest_queue_depth",
        "leakprofd_ingest_queue_depth_observed",
        "leakprofd_ingest_push_total",
        "leakprofd_ingest_admitted_total",
        "leakprofd_ingest_shed_total",
        "leakprofd_ingest_coalesced_total",
        "leakprofd_ingest_rejected_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing family {family}"
        );
    }
    // Two profile pushes plus the garbage one, whatever their fate.
    assert!(text.contains("leakprofd_ingest_push_total 3"));
    assert!(text.contains("reason=\"bad_request\""));
}

#[test]
fn checker_rejects_malformed_expositions() {
    let bad: &[&str] = &[
        // Sample without any TYPE.
        "leakprofd_x 1\n",
        // TYPE without samples is declared-but-empty.
        "# HELP leakprofd_x h\n# TYPE leakprofd_x gauge\n",
        // Missing HELP.
        "# TYPE leakprofd_x gauge\nleakprofd_x 1\n",
        // Bad prefix.
        "# HELP other_x h\n# TYPE other_x gauge\nother_x 1\n",
        // Non-numeric value.
        "# HELP leakprofd_x h\n# TYPE leakprofd_x gauge\nleakprofd_x oops\n",
        // Unterminated label value.
        "# HELP leakprofd_x h\n# TYPE leakprofd_x gauge\nleakprofd_x{a=\"b 1\n",
        // Histogram bucket without an le label.
        "# HELP leakprofd_x h\n# TYPE leakprofd_x histogram\nleakprofd_x_bucket{stage=\"a\"} 1\nleakprofd_x_sum 1\nleakprofd_x_count 1\n",
    ];
    for text in bad {
        let got = std::panic::catch_unwind(|| assert_conformant(text));
        assert!(got.is_err(), "checker accepted malformed input {text:?}");
    }
}

#[test]
fn prom_text_builder_round_trips_through_the_checker() {
    let mut p = PromText::new();
    p.family("leakprofd_demo", "gauge", "A demo family.");
    p.sample("leakprofd_demo", &[("site", "send at a\"b\\c.go:1")], 1.5);
    assert_conformant(&p.finish());
}

#[test]
fn prom_text_histograms_round_trip_through_the_checker() {
    let mut h = obs::LatencyHistogram::new();
    for us in [3, 900, 5000] {
        h.record_us(us);
    }
    let mut p = PromText::new();
    p.family("leakprofd_demo_us", "histogram", "A demo histogram.");
    p.histogram("leakprofd_demo_us", &[("stage", "scrape")], &h);
    let text = p.finish();
    assert_conformant(&text);
    // Cumulative buckets end at the count, and +Inf repeats it.
    assert!(text.contains("leakprofd_demo_us_bucket{stage=\"scrape\",le=\"+Inf\"} 3"));
    assert!(text.contains("leakprofd_demo_us_count{stage=\"scrape\"} 3"));
    assert!(text.contains("leakprofd_demo_us_sum{stage=\"scrape\"} 5903"));
}
