//! Criterion micro-benchmark: Morton-order sorting, the substrate of the
//! costzones partitioner and of the §6 leaf ordering.  (Key encoding alone
//! is bhtrace's `probe.nbody.morton_ns`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbody::body::root_cell;
use nbody::morton;
use nbody::plummer::{generate, PlummerConfig};
use nbody::Vec3;
use std::hint::black_box;

fn bench_morton(c: &mut Criterion) {
    let mut group = c.benchmark_group("morton");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[4_096usize, 65_536] {
        let bodies = generate(&PlummerConfig::new(n, 5));
        let positions: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let (center, rsize) = root_cell(&bodies);

        group.bench_with_input(BenchmarkId::new("sort_indices", n), &positions, |b, positions| {
            b.iter(|| {
                black_box(morton::sort_indices_by_morton(black_box(positions), center, rsize))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_morton);
criterion_main!(benches);
