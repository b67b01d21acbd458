//! E10 — core computation cost vs null density: folding redundant
//! null blocks out of a universal solution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_bench::null_spokes;
use dex_chase::{core_of, Governor};
use std::hint::black_box;

/// Short measurement windows: the suite's job is shape, not
/// publication-grade confidence intervals; this keeps the full
/// `cargo bench --workspace` run to a couple of minutes.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_core");
    for n in [40usize, 80] {
        for density in [0.0f64, 0.3, 0.7] {
            let inst = null_spokes(n, density);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("density_{density}"), n),
                &inst,
                |b, inst| b.iter(|| core_of(black_box(inst), &Governor::unlimited())),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_core
}
criterion_main!(benches);
