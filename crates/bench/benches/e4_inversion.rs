//! E4 — Example 3's inversion: maximum-recovery construction cost and
//! the bounded recovery verification cost vs instance size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_bench::{ceiling, parents, parents_mapping};
use dex_ops::{is_recovery_witness, maximum_recovery, not_invertible_witness};
use dex_relational::{tuple, Instance};
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

fn bench_recovery_construction(c: &mut Criterion) {
    let m = parents_mapping();
    c.bench_function("e4_inversion/maximum_recovery_construct", |b| {
        b.iter(|| maximum_recovery(black_box(&m)).unwrap())
    });
}

fn bench_recovery_verification(c: &mut Criterion) {
    let m = parents_mapping();
    let rec = maximum_recovery(&m).unwrap();
    let mut group = c.benchmark_group("e4_inversion/verify");
    for n in [10usize, 50, 200] {
        let sample = parents(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &sample, |b, sample| {
            b.iter(|| {
                let samples = std::slice::from_ref(sample);
                is_recovery_witness(black_box(&m), black_box(&rec), samples, &ceiling())
            })
        });
    }
    group.finish();
}

fn bench_invertibility_witness(c: &mut Criterion) {
    let m = parents_mapping();
    let i1 = Instance::with_facts(
        m.source().clone(),
        vec![("Father", vec![tuple!["Leslie", "Alice"]])],
    )
    .unwrap();
    let i2 = Instance::with_facts(
        m.source().clone(),
        vec![("Mother", vec![tuple!["Leslie", "Alice"]])],
    )
    .unwrap();
    c.bench_function("e4_inversion/not_invertible_witness", |b| {
        b.iter(|| not_invertible_witness(black_box(&m), black_box(&i1), black_box(&i2), &ceiling()))
    });
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_recovery_construction, bench_recovery_verification, bench_invertibility_witness
}
criterion_main!(benches);
