//! E12 — the storage/matching substrate ablation: full-scan oracle vs
//! indexed matching vs indexed **semi-naive** target chase, on E1's
//! Emp → Manager workload at n = 10² … 10⁵.
//!
//! Two workloads:
//! * `scan` / `indexed` — plain E1 (`Emp(x) → ∃y Manager(x, y)`). The
//!   standard chase's per-firing `has_match` check is the hot spot:
//!   a scan is O(n) per check (O(n²) total), an index probe is O(1).
//! * `semi_naive_scan` / `semi_naive` — E1 extended with a target tgd
//!   (`Manager(e, m) → Mgr(m)`), so phase 2 actually runs rounds and
//!   the delta-driven matcher has something to skip.
//!
//! The scan arms are capped at n ≤ 10³ — beyond that the quadratic
//! blow-up makes the bench run minutes per sample.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dex_bench::{ceiling, chase_fresh, emp_mapping, emps};
use dex_chase::{Budget, ChaseOptions, Governor, Matcher};
use dex_logic::{parse_mapping, Mapping};
use std::hint::black_box;

/// Never-tripping budget for the governed arm (see E14): engages every
/// counter check without a memory cap.
fn generous_budget() -> Budget {
    Budget::unlimited()
        .with_deadline(std::time::Duration::from_secs(3600))
        .with_max_rounds(u64::MAX / 2)
        .with_max_tuples(u64::MAX / 2)
        .with_max_nulls(u64::MAX / 2)
}

/// Short measurement windows: the suite's job is shape, not
/// publication-grade confidence intervals.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

/// E1 plus a target tgd, so the phase-2 chase runs real rounds.
fn emp_mgr_mapping() -> Mapping {
    parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        target Mgr(m);
        Emp(x) -> Manager(x, y);
        Manager(e, m) -> Mgr(m);
        "#,
    )
    .unwrap()
}

fn opts(matcher: Matcher) -> ChaseOptions {
    ChaseOptions {
        matcher,
        ..Default::default()
    }
}

fn bench_matching(c: &mut Criterion) {
    let plain = emp_mapping();
    let with_target_deps = emp_mgr_mapping();
    let mut group = c.benchmark_group("e12_matching");
    for n in [100usize, 1_000, 10_000, 100_000] {
        let src = emps(n);
        group.throughput(Throughput::Elements(n as u64));
        if n <= 1_000 {
            group.bench_with_input(BenchmarkId::new("scan", n), &src, |b, src| {
                b.iter(|| {
                    chase_fresh(
                        black_box(&plain),
                        black_box(src),
                        opts(Matcher::Scan),
                        &ceiling(),
                    )
                    .unwrap()
                })
            });
            group.bench_with_input(BenchmarkId::new("semi_naive_scan", n), &src, |b, src| {
                b.iter(|| {
                    chase_fresh(
                        black_box(&with_target_deps),
                        black_box(src),
                        opts(Matcher::Scan),
                        &ceiling(),
                    )
                    .unwrap()
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("indexed", n), &src, |b, src| {
            b.iter(|| {
                chase_fresh(
                    black_box(&plain),
                    black_box(src),
                    opts(Matcher::Indexed),
                    &ceiling(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("semi_naive", n), &src, |b, src| {
            b.iter(|| {
                chase_fresh(
                    black_box(&with_target_deps),
                    black_box(src),
                    opts(Matcher::Indexed),
                    &ceiling(),
                )
                .unwrap()
            })
        });
        // The delta-driven chase under an engaged, never-tripping
        // governor — phase-2 rounds are where the per-obligation and
        // per-round budget checks concentrate (E14).
        group.bench_with_input(
            BenchmarkId::new("semi_naive_governed", n),
            &src,
            |b, src| {
                b.iter(|| {
                    let gov = Governor::new(generous_budget());
                    chase_fresh(
                        black_box(&with_target_deps),
                        black_box(src),
                        opts(Matcher::Indexed),
                        &gov,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_matching
}
criterion_main!(benches);
