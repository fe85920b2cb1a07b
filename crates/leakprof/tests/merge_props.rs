//! Property tests for the shard-merge algebra: over arbitrary fleets
//! and arbitrary partitions into shards, merging per-shard
//! `FleetAccumulator`s yields a ranking byte-identical to one
//! accumulator over the whole fleet — and merge is commutative and
//! associative, so the merge tier may fold shard states in any order.

use gosim::{Frame, Gid, GoStatus, GoroutineProfile, GoroutineRecord, Loc};
use leakprof::{Config, FleetAccumulator, SiteStats};
use proptest::prelude::*;

/// A small pool of blocking sites; low cardinality maximizes count
/// collisions so the representative tie-break is actually exercised.
const SITES: [(&str, u32); 4] = [("a.go", 10), ("a.go", 20), ("b.go", 5), ("c.go", 33)];

fn blocked_rec(gid: u64, file: &str, line: u32, wait: u64) -> GoroutineRecord {
    GoroutineRecord {
        gid: Gid(gid),
        name: "pkg.f$1".into(),
        status: GoStatus::ChanSend { nil_chan: false },
        stack: vec![
            Frame::runtime("runtime.gopark"),
            Frame::runtime("runtime.chansend1"),
            Frame::new("pkg.f$1", Loc::new(file, line)),
        ],
        created_by: Frame::new("pkg.f", Loc::new(file, 1)),
        wait_ticks: wait,
        retained_bytes: 4096,
    }
}

/// One generated fleet: per instance, a count for each site in the
/// pool. Counts repeat across instances on purpose (0..12) so
/// representative elections tie constantly.
fn fleet() -> impl Strategy<Value = Vec<GoroutineProfile>> {
    proptest::collection::vec(proptest::collection::vec(0u64..12, SITES.len()), 1..14).prop_map(
        |per_instance| {
            per_instance
                .into_iter()
                .enumerate()
                .map(|(i, counts)| {
                    let mut recs = Vec::new();
                    for (site, &count) in counts.iter().enumerate() {
                        let (file, line) = SITES[site];
                        for g in 0..count {
                            // wait_ticks varies per instance so tied
                            // candidates differ in content and the
                            // deterministic tie-break decides.
                            recs.push(blocked_rec(
                                (site as u64) << 32 | g,
                                file,
                                line,
                                100 + i as u64,
                            ));
                        }
                    }
                    GoroutineProfile {
                        instance: format!("inst-{i}"),
                        captured_at: 7,
                        goroutines: recs,
                    }
                })
                .collect()
        },
    )
}

fn cfg() -> Config {
    Config {
        threshold: 4,
        ast_filter: false,
        top_n: 10,
    }
}

fn acc_of(profiles: &[&GoroutineProfile]) -> FleetAccumulator {
    let mut acc = FleetAccumulator::new();
    for p in profiles {
        acc.ingest(p);
    }
    acc
}

fn ranking_json(acc: &FleetAccumulator) -> String {
    let ranked: Vec<SiteStats> = acc.ranked(&cfg(), &leakprof::VerdictSet::new());
    serde_json::to_string(&ranked).expect("ranking serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any shard split produces the identical ranking: partition the
    /// fleet arbitrarily into up to 4 shards, merge the per-shard
    /// accumulators forward and in reverse, and both match one
    /// accumulator over the whole fleet byte-for-byte.
    #[test]
    fn any_partition_merges_to_the_whole_fleet_ranking(
        profiles in fleet(),
        assign in proptest::collection::vec(0usize..4, 64),
    ) {
        let whole = acc_of(&profiles.iter().collect::<Vec<_>>());
        let mut shards: Vec<Vec<&GoroutineProfile>> = vec![Vec::new(); 4];
        for (i, p) in profiles.iter().enumerate() {
            shards[assign[i % assign.len()]].push(p);
        }
        let accs: Vec<FleetAccumulator> =
            shards.iter().map(|s| acc_of(s)).collect();

        let mut forward = FleetAccumulator::new();
        for a in &accs {
            forward.merge(a);
        }
        let mut backward = FleetAccumulator::new();
        for a in accs.iter().rev() {
            backward.merge(a);
        }
        let expect = ranking_json(&whole);
        prop_assert_eq!(&ranking_json(&forward), &expect, "forward merge diverged");
        prop_assert_eq!(&ranking_json(&backward), &expect, "reverse merge diverged");
        prop_assert_eq!(forward.profiles_ingested(), whole.profiles_ingested());
        prop_assert_eq!(forward.goroutines_seen(), whole.goroutines_seen());
    }

    /// Commutativity and associativity of the merge itself: a∪b == b∪a
    /// and (a∪b)∪c == a∪(b∪c), compared on rankings.
    #[test]
    fn merge_is_commutative_and_associative(
        profiles in fleet(),
        cut1 in 0usize..14,
        cut2 in 0usize..14,
    ) {
        let c1 = cut1.min(profiles.len());
        let c2 = cut2.min(profiles.len()).max(c1);
        let a = acc_of(&profiles[..c1].iter().collect::<Vec<_>>());
        let b = acc_of(&profiles[c1..c2].iter().collect::<Vec<_>>());
        let c = acc_of(&profiles[c2..].iter().collect::<Vec<_>>());

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ranking_json(&ab), ranking_json(&ba), "merge is not commutative");

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ranking_json(&ab_c), ranking_json(&a_bc), "merge is not associative");
    }
}
