//! Criterion micro-benchmark: host-side overhead of the PGAS emulator's
//! bulk transfers (block gets, indexed and aggregated gathers).  This
//! measures the *emulation* cost, not simulated time — it is what bounds how
//! large a workload the harness can run.  (Fine-grained reads, barriers,
//! collectives and locks are bhtrace's `probe.pgas.*`.)

use criterion::{criterion_group, criterion_main, Criterion};
use pgas::{GlobalPtr, Machine, Runtime, SharedArena, SharedVec};
use std::hint::black_box;

const ELEMENTS: usize = 4_096;

fn bench_pgas(c: &mut Criterion) {
    let mut group = c.benchmark_group("pgas_primitives");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("bulk_get_block", |b| {
        let rt = Runtime::new(Machine::test_cluster(2));
        let v: SharedVec<u64> = SharedVec::from_fn(2, ELEMENTS, |i| i as u64);
        b.iter(|| {
            let report = rt.run(|ctx| v.get_block(ctx, 0..v.len()).into_iter().sum::<u64>());
            black_box(report.ranks[0].result)
        });
    });

    group.bench_function("indexed_gather_ilist", |b| {
        let rt = Runtime::new(Machine::test_cluster(4));
        let v: SharedVec<u64> = SharedVec::from_fn(4, ELEMENTS, |i| i as u64);
        let indices: Vec<usize> = (0..ELEMENTS).step_by(3).collect();
        let indices_ref = &indices;
        b.iter(|| {
            let report = rt.run(|ctx| v.get_ilist(ctx, indices_ref).into_iter().sum::<u64>());
            black_box(report.ranks[0].result)
        });
    });

    group.bench_function("aggregated_vlist_async", |b| {
        let rt = Runtime::new(Machine::test_cluster(4));
        let arena: SharedArena<u64> = SharedArena::new(4);
        let ptrs: Vec<GlobalPtr> =
            (0..ELEMENTS).map(|i| arena.alloc_raw(i % 4, i as u64)).collect();
        let ptrs_ref = &ptrs;
        b.iter(|| {
            let report = rt.run(|ctx| {
                let handle = arena.get_vlist_async(ctx, ptrs_ref);
                ctx.wait_sync(handle).into_iter().sum::<u64>()
            });
            black_box(report.ranks[0].result)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_pgas);
criterion_main!(benches);
