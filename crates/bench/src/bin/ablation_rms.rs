//! Ablation: RMS vs mean vs max as LeakProf's impact-ranking metric.
//!
//! The paper chose root-mean-square "for its capability to effectively
//! highlight suspicious operations within individual instances that
//! exhibit significant clusters of blocked goroutines". This experiment
//! constructs two sites with identical totals — a single-instance spike
//! (a real incident) and an evenly spread population (benign churn) —
//! and shows how each metric ranks them.

use gosim::{Frame, Gid, GoStatus, GoroutineProfile, GoroutineRecord, Loc};
use leakprof::{aggregate, rms, Config, VerdictSet};

fn blocked(gid: u64, file: &str, line: u32) -> GoroutineRecord {
    GoroutineRecord {
        gid: Gid(gid),
        name: "svc.handler$1".into(),
        status: GoStatus::ChanSend { nil_chan: false },
        stack: vec![
            Frame::runtime("runtime.gopark"),
            Frame::runtime("runtime.chansend1"),
            Frame::new("svc.handler$1", Loc::new(file, line)),
        ],
        created_by: Frame::new("svc.handler", Loc::new(file, 1)),
        wait_ticks: 50,
        retained_bytes: 8192,
    }
}

fn main() {
    // 20 instances. Site "spike.go:5": 2000 blocked on one instance.
    // Site "flat.go:7": 100 blocked on each instance (same total).
    let mut profiles = Vec::new();
    for i in 0..20u64 {
        let mut gs = Vec::new();
        if i == 0 {
            for g in 0..2000 {
                gs.push(blocked(g, "spike.go", 5));
            }
        }
        for g in 0..100 {
            gs.push(blocked(10_000 + g, "flat.go", 7));
        }
        profiles.push(GoroutineProfile {
            instance: format!("inst-{i}"),
            captured_at: 0,
            goroutines: gs,
        });
    }

    let cfg = Config {
        threshold: 100,
        ast_filter: false,
        top_n: 10,
    };
    let stats = aggregate(&profiles, &cfg, &VerdictSet::new());

    let mut table = String::from("site        | total | max_inst | mean   | rms\n");
    table.push_str("------------+-------+----------+--------+-------\n");
    for s in &stats {
        table.push_str(&format!(
            "{:<11} | {:>5} | {:>8} | {:>6.1} | {:>6.1}\n",
            s.op.loc.to_string(),
            s.total,
            s.max_instance,
            s.mean(),
            s.rms
        ));
    }
    println!("{table}");
    println!(
        "ranking by mean : tie ({}={})",
        stats[0].mean(),
        stats[1].mean()
    );
    println!(
        "ranking by rms  : {} first (rms {:.1} vs {:.1}) — the spike wins, as the paper intends",
        stats[0].op.loc, stats[0].rms, stats[1].rms
    );
    println!(
        "ranking by max  : also favors the spike, but saturates (cannot distinguish a\n\
         100-instance incident from a 1-instance one); rms grows with incident breadth:"
    );
    // Show rms growing with breadth at fixed max.
    let mut growth = String::from("instances_affected,rms\n");
    for k in [1usize, 2, 4, 8, 16] {
        let counts: Vec<u64> = (0..20).map(|i| if i < k { 2000 } else { 0 }).collect();
        growth.push_str(&format!("{k},{:.1}\n", rms(&counts)));
    }
    println!("{growth}");
    assert_eq!(&*stats[0].op.loc.file, "spike.go");
    bench::save("ablation_rms.txt", &table);
    bench::save("ablation_rms_growth.csv", &growth);
}
