//! E1 — chase scaling on the paper's Example 1 (Emp → Manager):
//! standard vs oblivious chase, 10² … 10⁴ employees.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_bench::{ceiling, chase_fresh, emp_mapping, emps};
use dex_chase::{Budget, ChaseOptions, ChaseVariant, Governor, Matcher};
use std::hint::black_box;

/// A budget generous enough to never trip on these workloads, so the
/// `*_governed` arms measure pure bookkeeping overhead (E14 in
/// EXPERIMENTS.md). No memory cap: byte accounting is priced
/// separately by `standard_governed_mem`.
fn generous_budget() -> Budget {
    Budget::unlimited()
        .with_deadline(std::time::Duration::from_secs(3600))
        .with_max_rounds(u64::MAX / 2)
        .with_max_tuples(u64::MAX / 2)
        .with_max_nulls(u64::MAX / 2)
}

/// Short measurement windows: the suite's job is shape, not
/// publication-grade confidence intervals; this keeps the full
/// `cargo bench --workspace` run to a couple of minutes.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

fn bench_chase(c: &mut Criterion) {
    let mapping = emp_mapping();
    let mut group = c.benchmark_group("e1_chase");
    for n in [100usize, 1_000, 10_000] {
        let src = emps(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("standard", n), &src, |b, src| {
            b.iter(|| {
                let opts = ChaseOptions::default();
                chase_fresh(black_box(&mapping), black_box(src), opts, &ceiling()).unwrap()
            })
        });
        // Same run under an engaged (but never-tripping) governor: the
        // gap to `standard` is the cost of resource governance.
        group.bench_with_input(BenchmarkId::new("standard_governed", n), &src, |b, src| {
            b.iter(|| {
                let gov = Governor::new(generous_budget());
                chase_fresh(
                    black_box(&mapping),
                    black_box(src),
                    ChaseOptions::default(),
                    &gov,
                )
                .unwrap()
            })
        });
        // With the approximate-memory cap too, which adds per-firing
        // byte accounting on top of the counter checks.
        group.bench_with_input(
            BenchmarkId::new("standard_governed_mem", n),
            &src,
            |b, src| {
                b.iter(|| {
                    let gov = Governor::new(generous_budget().with_max_memory(u64::MAX / 2));
                    chase_fresh(
                        black_box(&mapping),
                        black_box(src),
                        ChaseOptions::default(),
                        &gov,
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("oblivious", n), &src, |b, src| {
            b.iter(|| {
                chase_fresh(
                    black_box(&mapping),
                    black_box(src),
                    ChaseOptions {
                        variant: ChaseVariant::Oblivious,
                        ..Default::default()
                    },
                    &ceiling(),
                )
                .unwrap()
            })
        });
        // The retained full-scan oracle — the pre-index implementation —
        // for the speedup comparison (quadratic, so it dominates the
        // suite's runtime at 10⁴ already).
        group.bench_with_input(BenchmarkId::new("standard_scan", n), &src, |b, src| {
            b.iter(|| {
                chase_fresh(
                    black_box(&mapping),
                    black_box(src),
                    ChaseOptions {
                        matcher: Matcher::Scan,
                        ..Default::default()
                    },
                    &ceiling(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_chase
}
criterion_main!(benches);
