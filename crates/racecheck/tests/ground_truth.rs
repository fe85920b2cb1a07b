//! Precision/recall gate over the labelled race corpus.
//!
//! Recall: every labelled truth site must be localized — a finding on
//! the truth variable whose write site falls on a declared line, in the
//! declared file. Precision: racy programs must report only truth
//! variables, and the race-free control slice must report **zero**
//! findings. Every finding must carry both access stacks.

use corpus::races::{render_control, render_racy, RaceControl, RacePattern};
use leakprof::signature::ChanOpKind;
use racecheck::{check_sources, RunConfig};

#[test]
fn every_truth_site_is_localized() {
    for (i, pattern) in RacePattern::all().into_iter().enumerate() {
        let r = render_racy(pattern, "gt", i);
        let report = check_sources(&r.sources(), &r.entry(), &RunConfig::default())
            .unwrap_or_else(|e| panic!("{pattern:?} does not compile: {e:?}"));
        for t in &r.truth {
            let hit = report.findings.iter().any(|f| {
                f.var == t.var
                    && f.site().file.as_ref() == t.file
                    && t.write_lines.contains(&f.site().line)
            });
            assert!(
                hit,
                "{pattern:?}: truth var `{}` not localized at {:?} in {}\nreport:\n{}",
                t.var,
                t.write_lines,
                t.file,
                report.render()
            );
        }
    }
}

#[test]
fn racy_programs_report_only_truth_variables() {
    for (i, pattern) in RacePattern::all().into_iter().enumerate() {
        let r = render_racy(pattern, "pr", i);
        let report = check_sources(&r.sources(), &r.entry(), &RunConfig::default())
            .unwrap_or_else(|e| panic!("{pattern:?} does not compile: {e:?}"));
        let truth_vars: Vec<&str> = r.truth.iter().map(|t| t.var.as_str()).collect();
        for f in &report.findings {
            assert!(
                truth_vars.contains(&f.var.as_str()),
                "{pattern:?}: false positive on `{}` (truth: {truth_vars:?})\n{}",
                f.var,
                f.render()
            );
        }
    }
}

#[test]
fn control_slice_is_race_free() {
    for (i, control) in RaceControl::all().into_iter().enumerate() {
        let r = render_control(control, "cf", i);
        let report = check_sources(&r.sources(), &r.entry(), &RunConfig::default())
            .unwrap_or_else(|e| panic!("{control:?} does not compile: {e:?}"));
        assert!(
            report.is_clean(),
            "{control:?}: false positive(s):\n{}",
            report.render()
        );
        assert!(
            report.events_analyzed > 0,
            "{control:?} emitted no accesses"
        );
        // A plain build run with happens-before tracking off carries no
        // access instrumentation at all.
        let plain = minigo::compile_many(&r.sources()).expect("plain build compiles");
        let cfg = RunConfig::default();
        let mut rt = gosim::Runtime::with_seed(cfg.seed);
        plain.spawn_func(&mut rt, &r.entry(), Vec::<gosim::Val>::new());
        rt.advance(cfg.ticks, cfg.max_slices);
        assert!(
            rt.take_access_events().is_empty(),
            "{control:?}: plain build emitted access events"
        );
    }
}

#[test]
fn every_finding_carries_both_stacks_and_the_gap() {
    for (i, pattern) in RacePattern::all().into_iter().enumerate() {
        let r = render_racy(pattern, "st", i);
        let report = check_sources(&r.sources(), &r.entry(), &RunConfig::default()).unwrap();
        assert!(!report.findings.is_empty(), "{pattern:?} found nothing");
        for f in &report.findings {
            assert!(
                !f.first.stack.is_empty() && !f.second.stack.is_empty(),
                "{pattern:?}: finding without both stacks: {f}"
            );
            assert!(
                f.first.is_write || f.second.is_write,
                "{pattern:?}: race without a write: {f}"
            );
            assert!(!f.gap.is_empty(), "{pattern:?}: empty gap description");
            assert_ne!(
                f.first.gid, f.second.gid,
                "{pattern:?}: race within one goroutine: {f}"
            );
        }
    }
}

#[test]
fn suspects_ride_the_leak_pipeline_shape() {
    let r = render_racy(RacePattern::UnprotectedCounter, "sp", 0);
    let report = check_sources(&r.sources(), &r.entry(), &RunConfig::default()).unwrap();
    assert!(!report.suspects.is_empty());
    for s in &report.suspects {
        assert_eq!(s.op.kind, ChanOpKind::Race);
        assert_eq!(s.op.to_string(), format!("data race at {}", s.op.loc));
        let rep = s
            .representative
            .blocking_frame()
            .expect("representative has a user frame");
        assert_eq!(rep.loc, s.op.loc, "representative anchors the race site");
        assert!(s.rms > 0.0);
    }
    // Ranked like leaks: rms descending.
    for w in report.suspects.windows(2) {
        assert!(w[0].rms >= w[1].rms);
    }
}

#[test]
fn detection_is_deterministic_per_seed() {
    let r = render_racy(RacePattern::DoubleCheckedInit, "dt", 0);
    let a = check_sources(&r.sources(), &r.entry(), &RunConfig::default()).unwrap();
    let b = check_sources(&r.sources(), &r.entry(), &RunConfig::default()).unwrap();
    assert_eq!(
        serde_json::to_string(&a.findings).unwrap(),
        serde_json::to_string(&b.findings).unwrap()
    );
}
