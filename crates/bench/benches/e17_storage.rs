//! E17 — the columnar storage ablation, on E1's Emp workload.
//!
//! `columnar` vs `row_materialize` — what the column-major tuple
//! arena buys on the hot read path: a full predicate scan reading
//! `(tuple_id, col)` cells in place vs materializing each row as a
//! boundary `Tuple` first (the pre-refactor access pattern). Runs at
//! 10⁴ and 10⁵ tuples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_logic::parse_mapping;
use dex_relational::{tuple, Instance, Value};
use std::hint::black_box;

/// Few, short samples: the suite's job is shape, not
/// publication-grade intervals.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

/// E1's source instance: `n` facts `Emp(emp<i>)`.
fn emps(n: usize) -> Instance {
    let m = parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )
    .unwrap();
    let mut inst = Instance::empty(m.source().clone());
    for i in 0..n {
        inst.insert("Emp", tuple![format!("emp{i}").as_str()])
            .unwrap();
    }
    inst
}

/// The storage ablation: a full predicate scan over one relation,
/// reading cells columnar-in-place vs materializing each row.
fn bench_columnar_vs_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_storage");
    for n in [10_000usize, 100_000] {
        let src = emps(n);
        let rel = src.relation("Emp").unwrap();
        let needle = Value::str(format!("emp{}", n - 1));
        group.throughput(Throughput::Elements(n as u64));
        // Columnar: read each (tuple_id, col) cell in place — the
        // access pattern of `unify_row` on the matcher hot path.
        group.bench_with_input(BenchmarkId::new("columnar", n), &rel, |b, rel| {
            b.iter(|| {
                let mut hits = 0usize;
                for &id in rel.row_ids().iter() {
                    if rel.value_at(id, 0) == &needle {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        // Row-materializing: build a boundary `Tuple` per row before
        // looking at it — the pre-columnar access pattern.
        group.bench_with_input(BenchmarkId::new("row_materialize", n), &rel, |b, rel| {
            b.iter(|| {
                let mut hits = 0usize;
                for t in rel.iter() {
                    if t.get(0) == Some(&needle) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_columnar_vs_row
}
criterion_main!(benches);
