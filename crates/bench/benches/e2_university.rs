//! E2 — Figure 1's university mapping: correspondence-diagram
//! compilation cost and chase cost vs instance size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_bench::{ceiling, chase_fresh, takes, university_mapping};
use dex_chase::{exchange, ChaseOptions, Matcher};
use dex_logic::{CorrespondenceGroup, CorrespondenceSet};
use dex_relational::{RelSchema, Schema};
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

fn figure1_schemas() -> (Schema, Schema) {
    let source = Schema::with_relations(vec![
        RelSchema::untyped("Takes", vec!["name", "course"]).unwrap()
    ])
    .unwrap();
    let target = Schema::with_relations(vec![
        RelSchema::untyped("Student", vec!["id", "name"]).unwrap(),
        RelSchema::untyped("Assgn", vec!["name", "course"]).unwrap(),
    ])
    .unwrap();
    (source, target)
}

fn bench_correspondence_compile(c: &mut Criterion) {
    let (source, target) = figure1_schemas();
    let diagram = CorrespondenceSet::new(vec![CorrespondenceGroup::new(
        vec!["Takes"],
        vec!["Student", "Assgn"],
    )
    .arrow(("Takes", "name"), ("Student", "name"))
    .arrow(("Takes", "name"), ("Assgn", "name"))
    .arrow(("Takes", "course"), ("Assgn", "course"))]);
    c.bench_function("e2_university/correspondence_compile", |b| {
        b.iter(|| {
            diagram
                .compile(black_box(&source), black_box(&target))
                .unwrap()
        })
    });
}

fn bench_university_chase(c: &mut Criterion) {
    let mapping = university_mapping();
    let mut group = c.benchmark_group("e2_university/chase");
    for n in [100usize, 1_000, 5_000, 10_000] {
        let src = takes(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &src, |b, src| {
            b.iter(|| exchange(black_box(&mapping), black_box(src)).unwrap())
        });
        // Full-scan oracle (the pre-index implementation), for the
        // speedup comparison; quadratic, so capped at 10⁴.
        group.bench_with_input(BenchmarkId::new("scan", n), &src, |b, src| {
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
    targets = bench_correspondence_compile, bench_university_chase
}
criterion_main!(benches);
