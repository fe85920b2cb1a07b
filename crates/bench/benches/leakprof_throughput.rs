//! Section V-B reproduction: LeakProf analysis throughput.
//!
//! The paper analyzes ~200K goroutine profiles in under a minute on a
//! 48-core box. These benches measure profiles/second of the analysis
//! pipeline (sequential and parallel) on synthetic profiles shaped like
//! production ones, so the wall-clock claim can be extrapolated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gosim::{Frame, Gid, GoStatus, GoroutineProfile, GoroutineRecord, Loc};
use leakprof::{aggregate, aggregate_parallel, Config, VerdictSet};
use std::hint::black_box;

fn synth_profile(instance: usize, goroutines: usize) -> GoroutineProfile {
    let mut gs = Vec::with_capacity(goroutines);
    for g in 0..goroutines {
        let (disc, file, line) = match g % 4 {
            0 => ("runtime.chansend1", "pay/a.go", 8),
            1 => ("runtime.chanrecv1", "geo/b.go", 21),
            2 => ("runtime.selectgo", "msg/c.go", 33),
            _ => ("runtime.netpoll", "io/d.go", 2), // non-channel park
        };
        gs.push(GoroutineRecord {
            gid: Gid(g as u64),
            name: "svc.handler$1".into(),
            status: GoStatus::ChanSend { nil_chan: false },
            stack: vec![
                Frame::runtime("runtime.gopark"),
                Frame::runtime(disc),
                Frame::new("svc.handler$1", Loc::new(file, line)),
                Frame::new("svc.handler", Loc::new(file, 1)),
            ],
            created_by: Frame::new("svc.Serve", Loc::new(file, 1)),
            wait_ticks: 100,
            retained_bytes: 8192,
        });
    }
    GoroutineProfile {
        instance: format!("inst-{instance}"),
        captured_at: 1,
        goroutines: gs,
    }
}

fn bench_throughput(c: &mut Criterion) {
    let cfg = Config {
        threshold: 100,
        ast_filter: false,
        top_n: 10,
    };
    let index = VerdictSet::new();
    let mut group = c.benchmark_group("leakprof");
    for profiles in [200usize, 1_000] {
        // ~2000 goroutines per process, the paper's median.
        let data: Vec<GoroutineProfile> = (0..profiles).map(|i| synth_profile(i, 2_000)).collect();
        group.throughput(Throughput::Elements(profiles as u64));
        group.bench_with_input(BenchmarkId::new("sequential", profiles), &data, |b, d| {
            b.iter(|| black_box(aggregate(d, &cfg, &index).len()))
        });
        group.bench_with_input(BenchmarkId::new("parallel8", profiles), &data, |b, d| {
            b.iter(|| black_box(aggregate_parallel(d, &cfg, &index, 8).len()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput
}
criterion_main!(benches);
