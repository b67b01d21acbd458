//! End-to-end persistence: a store-backed chase survives a restart.
//!
//! Pinned properties:
//!
//! * a completed store-backed run recovers to exactly the in-memory
//!   result (same tuples, same null ids);
//! * a budget-exhausted run resumes from disk and finishes with the
//!   *identical* final instance an uninterrupted run produces —
//!   including total-round accounting under a round cap;
//! * recovery is a pure read: recovering twice gives the same state;
//! * snapshot cadence is invisible: every `snapshot_every` yields the
//!   same recovered states.

#[path = "../../../tests/common/mod.rs"]
mod temp_dir;

use temp_dir::TempDir;

use dex_chase::{chase, exchange, ChaseOutcome, RunContext, Start};
use dex_logic::{parse_mapping, Mapping};
use dex_relational::{tuple, Budget, Governor, Instance};
use dex_store::{fsck, ChaseState, Store, StoreMode, StoreOptions};

fn opts(snapshot_every: u64) -> StoreOptions {
    StoreOptions {
        snapshot_every,
        // Tests hammer tiny files; skipping fsync keeps them fast
        // without changing any code path being tested.
        sync: false,
    }
}

/// Chained tgds with a key egd: phase 2 runs several rounds and (under
/// the oblivious variant) at least one egd-merge round.
const MAPPING: &str = r#"
    source E1(name);
    source E2(name);
    target Manager(emp, mgr);
    target Chain(mgr, top);
    target Peer(mgr);
    key Manager(emp);
    E1(x) -> Manager(x, y);
    E2(x) -> Manager(x, y);
    Manager(x, y) -> Chain(y, z);
    Chain(y, z) -> Peer(z);
"#;

fn fixture() -> (Mapping, Instance) {
    let m = parse_mapping(MAPPING).unwrap();
    let src = Instance::with_facts(
        m.source().clone(),
        vec![
            ("E1", vec![tuple!["Alice"], tuple!["Bob"]]),
            ("E2", vec![tuple!["Alice"], tuple!["Carol"]]),
        ],
    )
    .unwrap();
    (m, src)
}

/// Non-terminating without a cap: each round invents a fresh null
/// (`S` ping-pongs into itself).
const PING_PONG: &str = r#"
    source R(a);
    target S(a, b);
    R(x) -> S(x, y);
    S(x, y) -> S(y, z);
"#;

fn run_to_store(dir: &std::path::Path, snapshot_every: u64, gov: &Governor) -> ChaseOutcome {
    let (m, src) = fixture();
    let mut store =
        Store::create(dir, StoreMode::Chase, MAPPING, &src, opts(snapshot_every)).unwrap();
    let mut sink = dex_store::StoreSink::new(&mut store);
    chase(
        &m,
        Start::Fresh(&src),
        RunContext {
            sink: Some(&mut sink),
            ..RunContext::new(gov)
        },
    )
    .unwrap()
}

#[test]
fn completed_run_recovers_bit_identically() {
    let dir = TempDir::new("complete");
    let (m, src) = fixture();
    let plain = exchange(&m, &src).unwrap();

    let out = run_to_store(&dir, 2, &Governor::unlimited());
    let ChaseOutcome::Complete(res) = out else {
        panic!("unlimited run must complete")
    };
    assert_eq!(res.target, plain.target);

    // A different process opens the store.
    let store = Store::open(&dir, opts(2)).unwrap();
    assert_eq!(store.mode(), StoreMode::Chase);
    assert_eq!(store.mapping_text(), MAPPING);
    assert_eq!(store.source().unwrap(), src);

    let rec = store.recover().unwrap().expect("snapshot exists");
    assert!(rec.state.complete);
    assert_eq!(rec.state.instance, plain.target, "recovered ≡ in-memory");
    assert!(fsck::fsck(&dir).unwrap().is_clean());

    // Recovery does not mutate the store.
    let again = store.recover().unwrap().unwrap();
    assert_eq!(again.state, rec.state);
}

#[test]
fn exhausted_run_resumes_to_the_uninterrupted_result() {
    for snapshot_every in [1, 2, 64] {
        let dir = TempDir::new(&format!("resume_{snapshot_every}"));
        let (m, src) = fixture();
        let uninterrupted = exchange(&m, &src).unwrap();

        // Trip the governor mid-phase-2.
        let gov = Governor::new(Budget::unlimited().with_max_rounds(1));
        let out = run_to_store(&dir, snapshot_every, &gov);
        let ChaseOutcome::Exhausted(ex) = out else {
            panic!("round cap must trip")
        };
        assert!(ex.report.rounds_committed >= 1);

        // Restart: recover the last committed round and finish.
        let mut store = Store::open(&dir, opts(snapshot_every)).unwrap();
        let rec = store.recover().unwrap().expect("checkpointed");
        assert!(!rec.state.complete);
        store.prepare_resume(&rec.state).unwrap();
        let mut sink = dex_store::StoreSink::new(&mut store);
        let resumed = chase(
            &m,
            Start::Resume(rec.state.clone().into()),
            RunContext {
                sink: Some(&mut sink),
                ..RunContext::new(&Governor::unlimited())
            },
        )
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(
            resumed.target, uninterrupted.target,
            "resume (snapshot_every={snapshot_every}) ≡ uninterrupted: same tuples, same nulls"
        );

        // And the finished state is durable in turn.
        let rec = store.recover().unwrap().unwrap();
        assert!(rec.state.complete);
        assert_eq!(rec.state.instance, uninterrupted.target);
    }
}

#[test]
fn resumed_round_caps_count_total_rounds_across_restarts() {
    let dir = TempDir::new("cap_total");
    let m = parse_mapping(PING_PONG).unwrap();
    let src = Instance::with_facts(m.source().clone(), vec![("R", vec![tuple!["u"]])]).unwrap();

    // Uninterrupted under a total cap of 6 rounds.
    let gov = Governor::new(Budget::unlimited().with_max_rounds(6));
    let ChaseOutcome::Exhausted(whole) =
        chase(&m, Start::Fresh(&src), RunContext::new(&gov)).unwrap()
    else {
        panic!("ping-pong must exhaust")
    };

    // Same cap, split across a restart at round 3.
    let mut store = Store::create(&dir, StoreMode::Chase, PING_PONG, &src, opts(2)).unwrap();
    let gov1 = Governor::new(Budget::unlimited().with_max_rounds(3));
    let mut sink = dex_store::StoreSink::new(&mut store);
    let ChaseOutcome::Exhausted(_) = chase(
        &m,
        Start::Fresh(&src),
        RunContext {
            sink: Some(&mut sink),
            ..RunContext::new(&gov1)
        },
    )
    .unwrap() else {
        panic!("first leg must exhaust")
    };

    let rec = store.recover().unwrap().unwrap();
    store.prepare_resume(&rec.state).unwrap();
    let gov2 = Governor::new(Budget::unlimited().with_max_rounds(6));
    let mut sink = dex_store::StoreSink::new(&mut store);
    let ChaseOutcome::Exhausted(second) = chase(
        &m,
        Start::Resume(rec.state.into()),
        RunContext {
            sink: Some(&mut sink),
            ..RunContext::new(&gov2)
        },
    )
    .unwrap() else {
        panic!("second leg must exhaust at the same total cap")
    };

    assert_eq!(
        second.report.rounds_committed,
        whole.report.rounds_committed
    );
    assert_eq!(second.partial, whole.partial, "split run ≡ whole run");
}

#[test]
fn create_refuses_to_overwrite_and_open_rejects_non_stores() {
    let dir = TempDir::new("occupied");
    let (_, src) = fixture();
    Store::create(&dir, StoreMode::Chase, MAPPING, &src, opts(8)).unwrap();
    assert!(matches!(
        Store::create(&dir, StoreMode::Chase, MAPPING, &src, opts(8)),
        Err(dex_store::StoreError::StoreExists { .. })
    ));

    let empty = TempDir::new("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(matches!(
        Store::open(&empty, opts(8)),
        Err(dex_store::StoreError::NotAStore { .. })
    ));
}

#[test]
fn prepare_resume_is_idempotent() {
    let dir = TempDir::new("idem");
    let gov = Governor::new(Budget::unlimited().with_max_rounds(1));
    run_to_store(&dir, 64, &gov);

    let mut store = Store::open(&dir, opts(64)).unwrap();
    let rec1: ChaseState = store.recover().unwrap().unwrap().state;
    store.prepare_resume(&rec1).unwrap();
    let rec2 = store.recover().unwrap().unwrap().state;
    store.prepare_resume(&rec2).unwrap();
    let rec3 = store.recover().unwrap().unwrap().state;
    assert_eq!(rec1, rec2);
    assert_eq!(rec2, rec3);
}
