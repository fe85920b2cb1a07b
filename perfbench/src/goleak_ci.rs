//! `goleak_ci`: the GOLEAK CI gate, `CiGate::run_package` over every
//! package of the default generated corpus, single-threaded and closed
//! loop. No I/O and no daemon code: the wall time measures the `gosim`
//! interpreter (one busy-loop leak test dominates it at the default
//! corpus seed) and the per-package median the fixed cost per test.
//! The corpus stays the default one so every run gates the same work;
//! `--seed` permutes the order packages are gated in.

use std::collections::BTreeSet;
use std::time::Instant;

use corpus::{Corpus, CorpusConfig, Package};
use goleak::{LeakReport, Verdict};
use gosim::rng::SplitMix64;
use gosim::{Runtime, SchedConfig};
use leakcore::ci::{CiConfig, CiGate};

use crate::stats::{median, Dist};
use crate::trace::{write_chrome, Layers, Recorder};
use crate::{overhead_pct, Outcome, RunConfig};

/// Set-ups measured per run. One takes about 2 ms, shorter than the
/// fast and slow phases a shared box goes through; 201 of them span
/// about half a second, so their median does not hang on one phase.
const SETUPS: usize = 201;
/// Measuring time per pass over the corpus; a pass takes about 10 s on
/// a 2-core x86-64 box, nearly all of it one busy-loop leak test.
const PASS_SECONDS: f64 = 10.0;

/// A package's verdicts rendered, and whether they agree with the
/// corpus truth.
struct Gated {
    rendered: String,
    agrees: bool,
}

fn judge(
    pkg: &Package,
    verdicts: &[Verdict],
    truth_pkgs: &BTreeSet<String>,
    truth_locs: &BTreeSet<(String, u32)>,
) -> Gated {
    let blocked = verdicts.iter().any(|v| !v.passed());
    let frames_ok = verdicts.iter().flat_map(Verdict::all_leaks).all(|l| {
        l.blocking_frame.as_ref().is_none_or(|f| {
            f.loc.is_unknown()
                || f.loc.file.starts_with('<')
                || truth_locs.contains(&(f.loc.file.to_string(), f.loc.line))
        })
    });
    Gated {
        rendered: verdicts.iter().map(Verdict::render).collect(),
        agrees: frames_ok && blocked == truth_pkgs.contains(&pkg.name),
    }
}

pub fn run(cfg: &RunConfig, o: &mut Outcome) -> Result<(), String> {
    // Set-up: corpus generation and gate construction, repeated.
    let mut setup_s = Vec::new();
    let mut built = None;
    // One more set-up than measured: the first warms the process.
    for i in 0..=SETUPS {
        let t = Instant::now();
        let corpus = Corpus::generate(CorpusConfig::default());
        let gate = CiGate::new(CiConfig::default());
        if i > 0 {
            setup_s.push(t.elapsed().as_secs_f64());
        }
        built = Some((corpus, gate));
    }
    let (corpus, gate) = built.expect("at least one set-up");
    o.set("setup_s", median(&setup_s));
    let tests: usize = corpus.packages.iter().map(|p| p.test_funcs.len()).sum();
    o.line(format!(
        "corpus: {} packages, {tests} tests, {} truth leak sites (seed {:#x})",
        corpus.packages.len(),
        corpus.truth.len(),
        corpus.config.seed
    ));
    o.line(format!(
        "setup_s = {:.5} s (median of {SETUPS} corpus generations)",
        median(&setup_s)
    ));
    let truth_pkgs: BTreeSet<String> = corpus.leaky_packages().map(|p| p.name.clone()).collect();
    let truth_locs = corpus.truth_locs();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut order: Vec<usize> = (0..corpus.packages.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }

    // Whole passes over the corpus: one per `PASS_SECONDS` of the
    // measuring time (half of it when a traced pass follows), at least
    // one, so a run's work does not depend on how fast the box is.
    let budget = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let passes = ((budget.as_secs_f64() / PASS_SECONDS) as usize).max(1);
    let mut wall_ms: Vec<f64> = Vec::new();
    let mut package_us = Vec::new();
    let mut rendered = Vec::new();
    for _ in 0..passes {
        let pass = Instant::now();
        rendered.clear();
        for &i in &order {
            let pkg = &corpus.packages[i];
            let t = Instant::now();
            let outcomes = gate.run_package(pkg);
            package_us.push(t.elapsed().as_secs_f64() * 1e6);
            let verdicts: Vec<Verdict> = outcomes.into_iter().map(|o| o.verdict).collect();
            let g = judge(pkg, &verdicts, &truth_pkgs, &truth_locs);
            o.attempted += 1;
            o.failed += u64::from(!g.agrees);
            rendered.push(g.rendered);
        }
        wall_ms.push(pass.elapsed().as_secs_f64() * 1e3);
    }
    o.check(
        format!(
            "every one of {} truth packages is blocked and every reported frame is a truth site",
            truth_pkgs.len()
        ),
        o.failed == 0,
    );
    let walls = Dist::new(wall_ms);
    let ci_wall_ms = walls.median();
    o.line(format!(
        "ci_wall_s = {:.4} s (median of {} passes; slowest {:.4} s)",
        ci_wall_ms / 1e3,
        walls.len(),
        walls.tail().1 / 1e3
    ));
    let (package_p50, _) = o.dist_lines("package", &package_us, "us");
    if !cfg.trace {
        o.set("op_p50_ms", ci_wall_ms);
        o.set("op_tail_ms", walls.tail().1);
        o.set(
            "throughput_per_s",
            corpus.packages.len() as f64 / (ci_wall_ms / 1e3),
        );
    } else {
        traced(cfg, o, &corpus, &gate, &order, &rendered, package_p50)?;
    }
    Ok(())
}

/// The traced pass: `run_package`'s calls — compile, then per test the
/// runtime run, the settle loop of `find_with_retry` and the profile
/// `find` takes — over the same package order, with the verdicts
/// compared with the untraced pass.
fn traced(
    cfg: &RunConfig,
    o: &mut Outcome,
    corpus: &Corpus,
    gate: &CiGate,
    order: &[usize],
    expected: &[String],
    untraced_us: f64,
) -> Result<(), String> {
    let rec = Recorder::new();
    let c = &gate.config;
    let opts = &c.goleak;
    let (mut run_slices, mut settle_slices) = (Vec::new(), Vec::new());
    let mut leaks = 0usize;
    let mut mismatches = 0usize;
    for (op, &i) in order.iter().enumerate() {
        let op = op as u64;
        let pkg = &corpus.packages[i];
        let root = rec.begin("ci.package", op, None, 0);
        let p = Some("ci.package");
        let prog = rec.time("minigo.compile", op, p, || pkg.compile());
        let mut verdicts = Vec::with_capacity(pkg.test_funcs.len());
        for (t, test) in pkg.test_funcs.iter().enumerate() {
            let qualified = format!("{}.{test}", pkg.name);
            let mut rt = rec.time("gosim.run", op, p, || {
                let mut rt = Runtime::new(SchedConfig {
                    seed: c.seed ^ (t as u64).wrapping_mul(0x9E3779B9),
                    ..SchedConfig::default()
                });
                prog.spawn_func(&mut rt, &qualified, vec![])
                    .unwrap_or_else(|| panic!("test function {qualified} missing"));
                rt.run_until_blocked(c.slice_budget);
                rt.advance(c.test_ticks, c.slice_budget);
                rt
            });
            let ran = rt.stats().slices;
            run_slices.push(ran as f64);
            let verify = rec.begin("goleak.verify", op, p, 0);
            let settled = rec.time("goleak.settle", op, Some("goleak.verify"), || {
                rt.run_until_blocked(opts.settle_budget);
                let mut backoff = opts.retry_ticks.max(1);
                for _ in 0..opts.max_retries {
                    if rt.live_count() == 0 {
                        return true;
                    }
                    rt.advance(backoff, opts.settle_budget);
                    backoff = backoff.saturating_mul(2);
                }
                false
            });
            let found: Vec<LeakReport> = if settled {
                Vec::new()
            } else {
                rec.time("goleak.profile", op, Some("goleak.verify"), || {
                    goleak::find(&rt, opts)
                })
            };
            let (suppressed, new_leaks) = found
                .into_iter()
                .partition(|l: &LeakReport| gate.suppressions.matches(l));
            rec.end(verify);
            settle_slices.push((rt.stats().slices - ran) as f64);
            let v = Verdict {
                new_leaks,
                suppressed,
            };
            leaks += v.all_leaks().count();
            verdicts.push(v);
        }
        rec.end(root);
        let rendered: String = verdicts.iter().map(Verdict::render).collect();
        if Some(&rendered) != expected.get(op as usize) {
            mismatches += 1;
        }
    }
    o.check(
        format!(
            "traced verdicts equal the untraced verdicts for all {} packages",
            order.len()
        ),
        mismatches == 0,
    );
    o.set("gosim.slices", median(&run_slices));
    o.set("goleak.settle_slices", median(&settle_slices));
    o.set("goleak.leaks", leaks as f64);
    let spans = rec.into_spans();
    let layers = Layers::from_spans(&spans);
    o.set_layers(&layers);
    o.set("ci.unattributed_us", layers.residual_us("ci.package"));
    let traced_us = layers.p50_us("ci.package");
    o.set("trace.overhead_pct", overhead_pct(untraced_us, traced_us));
    o.line(format!(
        "traced package_us: {} (untraced p50 {untraced_us:.3} us)",
        layers.dist_us("ci.package").describe("us")
    ));
    write_chrome(&spans, &cfg.spans).map_err(|e| format!("spans: {e}"))?;
    o.line(format!(
        "spans: {} written to {}",
        spans.len(),
        cfg.spans.display()
    ));
    Ok(())
}
