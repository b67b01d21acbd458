//! E20 — live schema migration: staged-migration wall-clock against
//! the brute-force alternative (export the source, re-run the whole
//! exchange under the new schema), and the overhead the staging store
//! adds over the bare migration chase.
//!
//! The migrated store holds N `Staff(id, name)` tuples; the evolution
//! is `ADD COLUMN Staff.grade DEFAULT "none"` — a single-round copy
//! chase, so the numbers isolate the per-tuple cost of the migration
//! machinery rather than chase fixpoint behavior.
//!
//! All arms run with `sync: false` (fsync latency is a property of the
//! CI disk; durability ordering is covered by the crash matrix).
//!
//! `DEX_E20_JSON=path cargo bench -p dex-bench --bench e20_migrate`
//! emits the CI smoke artifact; set `DEX_E20_FULL=1` to extend the
//! smoke sweep to 10⁶ tuples.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use dex_chase::{chase, ChaseOptions, RunContext, Start};
use dex_evolution::{compile_migration, diff, prefix_instance, render_mapping_dex, Catalog};
use dex_logic::{parse_mapping, Mapping};
use dex_relational::{Governor, Instance, Schema, Tuple, Value};
use dex_store::{MigratePlan, MigrateRun, Migration, Store, StoreMode, StoreOptions, StoreSink};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

const OLD_MAPPING: &str =
    "source Emp(id, name);\ntarget Staff(id, name);\nEmp(i, n) -> Staff(i, n);\n";
const NEW_SCHEMA: &str = "target Staff(id, name, grade);\n";
/// The brute-force path: re-exchange the exported source under the new
/// schema directly.
const NEW_MAPPING: &str =
    "source Emp(id, name);\ntarget Staff(id, name, grade);\nEmp(i, n) -> Staff(i, n, \"none\");\n";

fn opts() -> StoreOptions {
    StoreOptions {
        snapshot_every: u64::MAX,
        sync: false,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dex_e20_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn source(n: usize) -> (Mapping, Instance) {
    let m = parse_mapping(OLD_MAPPING).unwrap();
    let facts: Vec<Tuple> = (0..n)
        .map(|i| Tuple::new(vec![Value::int(i as i64), Value::str(format!("n{i}"))]))
        .collect();
    let src = Instance::with_facts(m.source().clone(), vec![("Emp", facts)]).unwrap();
    (m, src)
}

/// Build a completed, durable store of N migrated-from tuples at `dir`
/// — the thing a migration starts from.
fn build_store(dir: &Path, n: usize) {
    let (m, src) = source(n);
    let _ = std::fs::remove_dir_all(dir);
    let mut store = Store::create(dir, StoreMode::Chase, OLD_MAPPING, &src, opts()).unwrap();
    let gov = Governor::unlimited();
    let ctx = RunContext {
        sink: Some(&mut StoreSink::new(&mut store)),
        ..RunContext::new(&gov)
    };
    chase(&m, Start::Fresh(&src), ctx).unwrap();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// The compiled migration artifacts for a store at `dir`: the staged
/// plan, the `v0__`-prefixed stored instance, and the fold of the SMO
/// sequence as one chase mapping.
fn plan_migration(dir: &Path) -> (MigratePlan, Instance, Mapping) {
    let store = Store::open(dir, opts()).unwrap();
    let state = store.recover().unwrap().unwrap().state;
    let old = Catalog::from_schema(state.instance.schema());
    let new_schema: Schema = parse_mapping(NEW_SCHEMA).unwrap().target().clone();
    let smos = diff(&old, &Catalog::from_schema(&new_schema)).unwrap();
    let migration = compile_migration(state.instance.schema(), &new_schema, &smos).unwrap();
    let prefixed = prefix_instance(&state.instance, 0).unwrap();
    let plan = MigratePlan {
        schema_text: NEW_SCHEMA.to_string(),
        mapping_text: render_mapping_dex(&migration.mapping),
    };
    (plan, prefixed, migration.mapping)
}

/// The whole staged migration at `dir`: recover, diff, compile, stage,
/// chase into the staging store, commit, roll forward. Returns the
/// migrated tuple count.
fn migrate(dir: &Path) -> usize {
    let (plan, prefixed, _) = plan_migration(dir);
    let mut mig = Migration::begin(dir, &plan, &prefixed, opts()).unwrap();
    let tuples = match mig
        .run(ChaseOptions::default(), &Governor::unlimited())
        .unwrap()
    {
        MigrateRun::Done(state) => state.instance.fact_count(),
        MigrateRun::Suspended(r) => panic!("unbudgeted migration suspended: {r:?}"),
    };
    mig.finalize().unwrap();
    tuples
}

/// The brute-force alternative: re-run the full exchange of the
/// exported source under the new schema and persist a fresh store.
fn re_exchange(dir: &Path, n: usize) -> usize {
    let m = parse_mapping(NEW_MAPPING).unwrap();
    let (_, src) = source(n);
    let _ = std::fs::remove_dir_all(dir);
    let mut store = Store::create(dir, StoreMode::Chase, NEW_MAPPING, &src, opts()).unwrap();
    let gov = Governor::unlimited();
    let ctx = RunContext {
        sink: Some(&mut StoreSink::new(&mut store)),
        ..RunContext::new(&gov)
    };
    let outcome = chase(&m, Start::Fresh(&src), ctx).unwrap();
    black_box(outcome);
    n
}

fn bench_migrate(c: &mut Criterion) {
    for n in [10_000usize, 100_000] {
        let mut group = c.benchmark_group(format!("e20_migrate/{n}"));
        group.throughput(Throughput::Elements(n as u64));

        let template = tempdir(&format!("tmpl{n}"));
        build_store(&template, n);

        // Full staged migration, fresh store copy per iteration.
        let scratch = tempdir(&format!("mig{n}"));
        group.bench_function("staged", |b| {
            b.iter_batched(
                || {
                    let _ = std::fs::remove_dir_all(&scratch);
                    copy_dir(&template, &scratch);
                    scratch.clone()
                },
                |dir| {
                    assert_eq!(migrate(&dir), n);
                },
                BatchSize::PerIteration,
            )
        });

        // The bare migration chase with no staging store around it:
        // the staged/chase gap is the checkpoint + commit overhead.
        let (_, prefixed, mapping) = plan_migration(&template);
        group.bench_function("chase_only", |b| {
            b.iter(|| {
                black_box(
                    chase(
                        &mapping,
                        Start::Fresh(&prefixed),
                        RunContext::new(&Governor::unlimited()),
                    )
                    .unwrap(),
                )
            })
        });

        // Brute force: full export + re-exchange under the new schema.
        let redir = tempdir(&format!("re{n}"));
        group.bench_function("re_exchange", |b| {
            b.iter(|| assert_eq!(re_exchange(&redir, n), n))
        });

        for d in [&template, &scratch, &redir] {
            let _ = std::fs::remove_dir_all(d);
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_migrate
}

/// The CI smoke artifact: one timed pass of each arm per size.
fn smoke(path: &str) {
    let mut sizes = vec![10_000usize, 100_000];
    if std::env::var("DEX_E20_FULL").is_ok() {
        sizes.push(1_000_000);
    }
    let mut rows = Vec::new();
    for n in &sizes {
        let n = *n;
        let template = tempdir(&format!("smoke_tmpl{n}"));
        build_store(&template, n);

        let dir = tempdir(&format!("smoke_mig{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&template, &dir);
        let t = Instant::now();
        assert_eq!(migrate(&dir), n);
        let migrate_ms = t.elapsed().as_secs_f64() * 1e3;

        let (_, prefixed, mapping) = plan_migration(&template);
        let t = Instant::now();
        let gov = Governor::unlimited();
        let res = chase(&mapping, Start::Fresh(&prefixed), RunContext::new(&gov)).unwrap();
        black_box(res);
        let chase_ms = t.elapsed().as_secs_f64() * 1e3;

        let redir = tempdir(&format!("smoke_re{n}"));
        let t = Instant::now();
        assert_eq!(re_exchange(&redir, n), n);
        let re_exchange_ms = t.elapsed().as_secs_f64() * 1e3;

        rows.push(format!(
            "    {{\"tuples\": {n}, \"migrate_ms\": {migrate_ms:.1}, \
             \"chase_only_ms\": {chase_ms:.1}, \"re_exchange_ms\": {re_exchange_ms:.1}, \
             \"speedup_vs_re_exchange\": {:.2}}}",
            re_exchange_ms / migrate_ms
        ));
        for d in [&template, &dir, &redir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"e20_migrate\",\n  \"arms\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("write smoke artifact");
    println!("e20 smoke metrics -> {path}\n{json}");
}

fn main() {
    if let Ok(path) = std::env::var("DEX_E20_JSON") {
        smoke(&path);
        return;
    }
    benches();
}
