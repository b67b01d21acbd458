//! E3 — Example 2's composition: symbolic composition cost vs chain
//! length, and executing the composed SO-tgd in one chase vs chasing
//! the two mappings in sequence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_bench::{chain_mappings, emps, example2_mappings};
use dex_chase::{exchange, so_exchange, Governor};
use dex_ops::compose;
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

fn bench_symbolic_composition(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_composition/symbolic");
    for k in [2usize, 4, 8] {
        let chain = chain_mappings(k);
        group.bench_with_input(BenchmarkId::new("chain", k), &chain, |b, chain| {
            b.iter(|| {
                let mut acc = chain[0].clone();
                for next in &chain[1..] {
                    acc = compose(black_box(&acc), black_box(next))
                        .unwrap()
                        .into_mapping()
                        .unwrap();
                }
                acc
            })
        });
    }
    // The paper's Example 2 pair (second-order output).
    let (m12, m23) = example2_mappings();
    group.bench_function("example2", |b| {
        b.iter(|| compose(black_box(&m12), black_box(&m23)).unwrap())
    });
    group.finish();
}

fn bench_one_step_vs_two_step(c: &mut Criterion) {
    let (m12, m23) = example2_mappings();
    let comp = compose(&m12, &m23).unwrap();
    let mut group = c.benchmark_group("e3_composition/execution");
    for n in [100usize, 1_000, 5_000] {
        let src = emps(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("two_step_chase", n), &src, |b, src| {
            b.iter(|| {
                let j = exchange(black_box(&m12), black_box(src)).unwrap().target;
                exchange(black_box(&m23), &j).unwrap().target
            })
        });
        group.bench_with_input(BenchmarkId::new("one_step_sochase", n), &src, |b, src| {
            b.iter(|| {
                let gov = Governor::unlimited();
                so_exchange(black_box(&comp.sotgd), m23.target(), black_box(src), &gov).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_symbolic_composition, bench_one_step_vs_two_step
}
criterion_main!(benches);
