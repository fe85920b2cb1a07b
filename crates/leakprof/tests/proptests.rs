//! Property tests for the analysis pipeline's algebra.

use gosim::{Frame, Gid, GoStatus, GoroutineProfile, GoroutineRecord, Loc};
use leakprof::{aggregate, rms, Config, VerdictSet};
use proptest::prelude::*;

fn blocked(gid: u64, file: &str, line: u32) -> GoroutineRecord {
    GoroutineRecord {
        gid: Gid(gid),
        name: "f$1".into(),
        status: GoStatus::ChanSend { nil_chan: false },
        stack: vec![
            Frame::runtime("runtime.gopark"),
            Frame::runtime("runtime.chansend1"),
            Frame::new("f$1", Loc::new(file, line)),
        ],
        created_by: Frame::new("f", Loc::new(file, 1)),
        wait_ticks: 1,
        retained_bytes: 64,
    }
}

fn profiles_from(counts: &[Vec<u32>]) -> Vec<GoroutineProfile> {
    // counts[i][s] = blocked goroutines at site s in instance i.
    counts
        .iter()
        .enumerate()
        .map(|(i, sites)| {
            let mut gs = Vec::new();
            let mut gid = 0;
            for (s, &n) in sites.iter().enumerate() {
                for _ in 0..n {
                    gs.push(blocked(gid, &format!("site{s}.go"), 10));
                    gid += 1;
                }
            }
            GoroutineProfile {
                instance: format!("i{i}"),
                captured_at: 0,
                goroutines: gs,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RMS is bounded by the mean from below and the max from above.
    #[test]
    fn rms_between_mean_and_max(counts in proptest::collection::vec(0u64..10_000, 1..50)) {
        let r = rms(&counts);
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let max = *counts.iter().max().expect("non-empty") as f64;
        prop_assert!(r >= mean - 1e-9, "rms {r} < mean {mean}");
        prop_assert!(r <= max + 1e-9, "rms {r} > max {max}");
    }

    /// Site totals equal the number of blocked goroutines injected, and
    /// per-instance vectors cover every profile exactly once.
    #[test]
    fn aggregate_conserves_counts(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..60, 3), 1..8)
    ) {
        let profiles = profiles_from(&counts);
        let cfg = Config { threshold: 1, ast_filter: false, top_n: 10 };
        let stats = aggregate(&profiles, &cfg, &VerdictSet::new());
        for s in &stats {
            let site: usize = s.op.loc.file
                .strip_prefix("site").unwrap()
                .strip_suffix(".go").unwrap()
                .parse().unwrap();
            let expected: u64 = counts.iter().map(|inst| inst[site] as u64).sum();
            prop_assert_eq!(s.total, expected);
            prop_assert_eq!(s.per_instance.len(), profiles.len());
            let vector_sum: u64 = s.per_instance.iter().map(|(_, c)| *c).sum();
            prop_assert_eq!(vector_sum, expected);
        }
    }

    /// Raising the threshold never surfaces a site that a lower
    /// threshold hid: suspects(T2) ⊆ suspects(T1) for T1 <= T2.
    #[test]
    fn threshold_is_monotone(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..80, 3), 1..8),
        t1 in 1u64..40,
        extra in 0u64..40,
    ) {
        let t2 = t1 + extra;
        let profiles = profiles_from(&counts);
        let get = |t: u64| {
            let cfg = Config { threshold: t, ast_filter: false, top_n: 10 };
            aggregate(&profiles, &cfg, &VerdictSet::new())
                .into_iter()
                .map(|s| s.op)
                .collect::<std::collections::BTreeSet<_>>()
        };
        let low = get(t1);
        let high = get(t2);
        prop_assert!(high.is_subset(&low), "t1={t1} t2={t2}");
    }

    /// The snapshot format round-trips exactly: serialize → JSON →
    /// deserialize → `ranked()` is byte-identical to the source
    /// accumulator's, for any ingestion history and any threshold.
    #[test]
    fn snapshot_roundtrip_is_ranking_exact(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..120, 4), 1..10),
        threshold in 1u64..60,
    ) {
        let profiles = profiles_from(&counts);
        let mut acc = leakprof::FleetAccumulator::new();
        for p in &profiles {
            acc.ingest(p);
        }
        // Through the full persistence path: snapshot → JSON text →
        // parsed snapshot → restored accumulator.
        let json = serde_json::to_string(&acc.snapshot()).unwrap();
        let snap: leakprof::AccumulatorSnapshot = serde_json::from_str(&json).unwrap();
        let restored = leakprof::FleetAccumulator::from_snapshot(&snap).unwrap();

        let cfg = Config { threshold, ast_filter: false, top_n: 10 };
        let want = aggregate(&profiles, &cfg, &VerdictSet::new());
        let got = restored.ranked(&cfg, &VerdictSet::new());
        prop_assert_eq!(
            serde_json::to_string(&want).unwrap(),
            serde_json::to_string(&got).unwrap()
        );
        prop_assert_eq!(restored.profiles_ingested(), profiles.len());
    }

    /// Ranking is sorted by RMS, descending.
    #[test]
    fn ranking_is_sorted(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..100, 4), 2..6)
    ) {
        let profiles = profiles_from(&counts);
        let cfg = Config { threshold: 1, ast_filter: false, top_n: 10 };
        let stats = aggregate(&profiles, &cfg, &VerdictSet::new());
        for w in stats.windows(2) {
            prop_assert!(w[0].rms >= w[1].rms - 1e-12);
        }
    }
}
