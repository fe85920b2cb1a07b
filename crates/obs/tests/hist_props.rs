//! Property tests for the latency histogram's algebra.
//!
//! The tracer folds spans into per-stage histograms from several places
//! (per-cycle drains, dashboard merges across snapshots), so the
//! operations need to commute: `merge` must be associative and
//! commutative, and quantiles must be monotone in `q` so p50 ≤ p99 is a
//! structural guarantee rather than a coincidence of the data.

use obs::LatencyHistogram;
use proptest::prelude::*;

fn hist_from(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &us in samples {
        h.record_us(us);
    }
    h
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000_000, 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge(a, b) == merge(b, a).
    #[test]
    fn merge_is_commutative(xs in samples(), ys in samples()) {
        let (a, b) = (hist_from(&xs), hist_from(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)).
    #[test]
    fn merge_is_associative(xs in samples(), ys in samples(), zs in samples()) {
        let (a, b, c) = (hist_from(&xs), hist_from(&ys), hist_from(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merging equals recording the concatenated samples directly.
    #[test]
    fn merge_matches_bulk_record(xs in samples(), ys in samples()) {
        let mut merged = hist_from(&xs);
        merged.merge(&hist_from(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged, hist_from(&all));
    }

    /// quantile_us is monotone non-decreasing in q.
    #[test]
    fn quantiles_are_monotone_in_q(
        xs in proptest::collection::vec(0u64..10_000_000, 1..64),
        qs in proptest::collection::vec(0u64..1_001, 2..8),
    ) {
        let h = hist_from(&xs);
        let mut qs = qs.clone();
        qs.sort_unstable();
        let mut prev = 0u64;
        for q in qs {
            let v = h.quantile_us(q as f64 / 1_000.0);
            prop_assert!(v >= prev, "quantile({q}/1000) = {v} < previous {prev}");
            prev = v;
        }
    }

    /// Every quantile of a non-empty histogram is bounded by twice the
    /// max (bucket upper bounds never overshoot a sample by more than
    /// one power of two) and count/mean stay consistent.
    #[test]
    fn quantiles_and_moments_bracket_samples(
        xs in proptest::collection::vec(1u64..10_000_000, 1..64)
    ) {
        let h = hist_from(&xs);
        let max = *xs.iter().max().expect("non-empty");
        let sum: u64 = xs.iter().sum();
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.max_us(), max);
        prop_assert_eq!(h.mean_us(), sum / xs.len() as u64);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = h.quantile_us(q);
            prop_assert!(v <= max, "quantile({q}) = {v} > max {max}");
        }
        prop_assert!(h.p50_us() <= h.p99_us());
    }
}
