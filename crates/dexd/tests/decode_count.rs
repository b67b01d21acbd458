//! How many whole instances each durable step decodes, pinned on a
//! reach-chain store. The steps make the library calls `dexcli resume`,
//! `dexcli migrate` and `dexcli fsck` make. Counts come from
//! dex-store's thread-local `instance_decodes`, so tests running on
//! other threads cannot disturb them.

mod common;

use common::TempDir;
use dex_chase::{ChaseOptions, ChaseOutcome, Governor};
use dex_logic::parse_mapping;
use dex_relational::{Budget, Instance, Tuple, Value};
use dex_store::codec::instance_decodes;
use dex_store::{fsck, MigrateRun, Migration, Store, StoreMode, StoreOptions};
use dexd::pipeline::{self, Policy};
use std::path::Path;

/// The benchmark's reachability mapping: one target round per path
/// length.
const REACH: &str = "source Edge(x, y);
target E(x, y);
target Path(x, y);
target Hop(x, w);
Edge(x, y) -> E(x, y);
Edge(x, y) -> Path(x, y);
Path(x, y) & E(y, z) -> Path(x, z);
Path(x, y) -> Hop(x, w);
";

/// `Path` gains a column; everything else is unchanged.
const MIGRATED: &str = "target E(x, y);
target Path(x, y, hops);
target Hop(x, w);
";

const OPTS: StoreOptions = StoreOptions {
    snapshot_every: 64,
    sync: false,
};

/// Run `f` and count the instances it decoded on this thread.
fn decodes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = instance_decodes();
    let out = f();
    (out, instance_decodes() - before)
}

/// `dexcli chase --store <dir> --max-rounds 6` over a 12-edge chain:
/// a store stopped at a durable boundary, its rounds in the WAL.
fn stopped_store(dir: &Path) {
    let m = parse_mapping(REACH).unwrap();
    let edges = (0..12)
        .map(|i| {
            Tuple::new(vec![
                Value::str(format!("n{i}")),
                Value::str(format!("n{}", i + 1)),
            ])
        })
        .collect();
    let src = Instance::with_facts(m.source().clone(), vec![("Edge", edges)]).unwrap();
    let mut store = Store::create(dir, StoreMode::Chase, REACH, &src, OPTS).unwrap();
    let gov = Governor::new(Budget::unlimited().with_max_rounds(6));
    let outcome = pipeline::chase(&m, &src, &gov, Some(&mut store)).unwrap();
    assert!(matches!(outcome, ChaseOutcome::Exhausted(_)));
}

#[test]
fn each_durable_step_decodes_each_file_once() {
    let dir = TempDir::new("decode_count");
    stopped_store(&dir);

    // resume: open, recover, continue to fixpoint.
    let (mut store, open) = decodes(|| Store::open(&dir, OPTS).unwrap());
    assert_eq!(open, 0, "Store::open reads the snapshot header only");
    let (resumed, n) = decodes(|| {
        let m = parse_mapping(store.mapping_text()).unwrap();
        let state = store.recover().unwrap().unwrap().state;
        let gov = Governor::new(Policy::default().budget(Budget::unlimited()));
        pipeline::resume(&m, &mut store, state, &gov).unwrap()
    });
    assert!(matches!(resumed, ChaseOutcome::Complete(_)));
    assert_eq!(n, 1, "resume decodes the snapshot once");

    // migrate: plan against the live store, stage, run, commit.
    let (run, n) = decodes(|| {
        let plan = pipeline::plan_migration(
            &dir,
            OPTS,
            MIGRATED,
            &Policy::default(),
            Budget::unlimited(),
            false,
        )
        .unwrap();
        let gov = Governor::new(plan.admitted.budget);
        let mut mig = plan.begin(&dir, OPTS).unwrap();
        pipeline::run_migration(&mut mig, &gov).unwrap()
    });
    let MigrateRun::Done(state) = run else {
        panic!("an unbudgeted migration completes");
    };
    assert_eq!(state.instance.fact_count(), 12 + 78 + 12);
    assert_eq!(
        n, 1,
        "migrate decodes the live snapshot once, and neither the staged \
         source nor the staged result"
    );

    // fsck: one read and one decode of each file that holds an
    // instance (snapshot.bin, source.bin).
    let (report, n) = decodes(|| fsck::fsck(&dir).unwrap());
    assert!(report.is_clean(), "{report}");
    assert_eq!(n, 2, "fsck decodes snapshot.bin and source.bin once each");
}

/// A migration whose process stopped between the staged chase and the
/// commit: the next process decodes the completed staged boundary once,
/// in `run`, and `commit` copies the verified snapshot instead.
#[test]
fn a_resumed_migration_decodes_the_staged_boundary_once() {
    let dir = TempDir::new("decode_count_resumed");
    stopped_store(&dir);
    let mut store = Store::open(&dir, OPTS).unwrap();
    let state = store.recover().unwrap().unwrap().state;
    let m = parse_mapping(REACH).unwrap();
    pipeline::resume(&m, &mut store, state, &Governor::unlimited()).unwrap();

    let plan = pipeline::plan_migration(
        &dir,
        OPTS,
        MIGRATED,
        &Policy::default(),
        Budget::unlimited(),
        false,
    )
    .unwrap();
    let mut mig = plan.begin(&dir, OPTS).unwrap();
    let run = mig
        .run(ChaseOptions::default(), &Governor::unlimited())
        .unwrap();
    assert!(matches!(run, MigrateRun::Done(_)));
    drop(mig);

    let (run, n) = decodes(|| {
        let mut mig = Migration::resume(&dir, OPTS).unwrap();
        pipeline::run_migration(&mut mig, &Governor::unlimited()).unwrap()
    });
    assert!(matches!(run, MigrateRun::Done(_)));
    assert_eq!(n, 1, "the staged boundary is decoded once, by run");
    assert!(fsck::fsck(&dir).unwrap().is_clean());
}
