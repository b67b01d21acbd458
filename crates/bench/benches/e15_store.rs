//! E15 — persistence cost: snapshot write/load throughput, WAL append
//! latency, recovery time vs WAL length, and the overhead a checkpoint
//! sink adds to an otherwise identical chase.
//!
//! All arms run with `sync: false`: fsync latency is a property of the
//! CI disk, not of the store's encode/scan/replay paths, and the
//! durability ordering itself is covered by the crash matrix.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dex_chase::{chase, Checkpoint, CheckpointSink, RunContext, Start};
use dex_logic::parse_mapping;
use dex_relational::{Governor, Instance, Name, Tuple, Value};
use dex_store::{snapshot, ChaseState, Store, StoreMode, StoreOptions};
use std::hint::black_box;
use std::path::PathBuf;

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

const N: usize = 10_000;

const MAPPING: &str = r#"
    source R(a);
    target S(a, b);
    target T(b);
    R(x) -> S(x, y);
    S(x, y) -> T(y);
"#;

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dex_e15_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn opts() -> StoreOptions {
    StoreOptions {
        snapshot_every: u64::MAX,
        sync: false,
    }
}

/// An instance with `n` two-column tuples in one relation.
fn instance(n: usize) -> Instance {
    let m = parse_mapping(MAPPING).unwrap();
    let facts: Vec<Tuple> = (0..n)
        .map(|i| Tuple::new(vec![Value::str(format!("k{i}")), Value::int(i as i64)]))
        .collect();
    Instance::with_facts(m.target().clone(), vec![("S", facts)]).unwrap()
}

/// A source instance driving a two-round chase over `n` facts.
fn source(n: usize) -> (dex_logic::Mapping, Instance) {
    let m = parse_mapping(MAPPING).unwrap();
    let facts: Vec<Tuple> = (0..n)
        .map(|i| Tuple::new(vec![Value::str(format!("k{i}"))]))
        .collect();
    let src = Instance::with_facts(m.source().clone(), vec![("R", facts)]).unwrap();
    (m, src)
}

/// A sink that swallows checkpoints: isolates the chase-side cost of
/// materializing `Checkpoint` values from any disk work.
struct NullSink;
impl CheckpointSink for NullSink {
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
        black_box(cp.round);
        Ok(())
    }
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_snapshot");
    group.throughput(Throughput::Elements(N as u64));

    let state = ChaseState {
        instance: instance(N),
        round: 7,
        next_null: N as u64,
        complete: false,
    };
    let dir = tempdir("snap");
    group.bench_function(format!("write/{N}"), |b| {
        b.iter(|| snapshot::write(&dir, &state, false).unwrap())
    });
    snapshot::write(&dir, &state, false).unwrap();
    group.bench_function(format!("load/{N}"), |b| {
        b.iter(|| black_box(snapshot::read(&dir).unwrap().unwrap()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_wal");

    let (_, src) = source(16);
    let target = instance(16);
    let batch: Vec<(Name, Vec<Tuple>)> = vec![(
        Name::new("S"),
        (0..8)
            .map(|i| Tuple::new(vec![Value::str(format!("d{i}")), Value::int(i)]))
            .collect(),
    )];

    let dir = tempdir("wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::create(&dir, StoreMode::Chase, MAPPING, &src, opts()).unwrap();
    let mut round = 0u64;
    group.bench_function("append_delta_8", |b| {
        b.iter(|| {
            round += 1;
            store
                .record_checkpoint(&Checkpoint {
                    round,
                    next_null: round,
                    target: &target,
                    delta: Some(batch.clone()),
                    complete: false,
                })
                .unwrap()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_recovery");

    for wal_len in [100u64, 1000] {
        // A store whose WAL holds `wal_len` delta records past the
        // round-0 snapshot; recovery must scan and replay all of them.
        let (_, src) = source(16);
        let target = instance(16);
        let dir = tempdir(&format!("rec{wal_len}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::create(&dir, StoreMode::Chase, MAPPING, &src, opts()).unwrap();
        store
            .record_checkpoint(&Checkpoint {
                round: 0,
                next_null: 0,
                target: &Instance::empty(parse_mapping(MAPPING).unwrap().target().clone()),
                delta: None,
                complete: false,
            })
            .unwrap();
        for round in 1..=wal_len {
            let batch = vec![(
                Name::new("S"),
                vec![Tuple::new(vec![
                    Value::str(format!("r{round}")),
                    Value::int(round as i64),
                ])],
            )];
            store
                .record_checkpoint(&Checkpoint {
                    round,
                    next_null: round,
                    target: &target,
                    delta: Some(batch),
                    complete: false,
                })
                .unwrap();
        }
        group.throughput(Throughput::Elements(wal_len));
        group.bench_function(format!("replay/{wal_len}"), |b| {
            b.iter(|| {
                let s = Store::open(&dir, opts()).unwrap();
                let r = s.recover().unwrap().unwrap();
                assert_eq!(r.state.round, wal_len);
                black_box(r.replayed_records)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_checkpoint_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_overhead");

    let (m, src) = source(2000);
    group.bench_function("exchange_plain", |b| {
        b.iter(|| {
            black_box(
                chase(
                    &m,
                    Start::Fresh(&src),
                    RunContext::new(&Governor::unlimited()),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("exchange_null_sink", |b| {
        b.iter(|| {
            black_box(
                chase(
                    &m,
                    Start::Fresh(&src),
                    RunContext {
                        sink: Some(&mut NullSink),
                        ..RunContext::new(&Governor::unlimited())
                    },
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_snapshot, bench_wal_append, bench_recovery, bench_checkpoint_overhead
}
criterion_main!(benches);
