//! The crash matrix — the store's acceptance property.
//!
//! For every store IO fail-point site, every fault action (typed
//! error, torn short write at several byte cuts, panic), and every
//! hit ordinal until the fault stops firing: run a store-backed
//! chase into the fault, reopen the directory as a fresh process
//! would, and require that
//!
//! 1. recovery lands **bit-identically** on some committed round
//!    boundary of the uninterrupted run (same instance, same round,
//!    same null-generator position) — or on "nothing committed yet";
//! 2. `fsck` names every torn tail, and `repair` truncates it so a
//!    second fsck is clean;
//! 3. resuming from the recovered boundary finishes with the exact
//!    final instance of the uninterrupted run — same tuples, same
//!    null allocation order.
//!
//! Compiled only with `--features failpoints`.
#![cfg(feature = "failpoints")]

#[path = "../../../tests/common/mod.rs"]
mod temp_dir;

use std::panic::{catch_unwind, AssertUnwindSafe};
use temp_dir::TempDir;

use dex_chase::{chase, Checkpoint, CheckpointSink, RunContext, Start};
use dex_logic::{parse_mapping, Mapping};
use dex_relational::fail::{arm, clear, exclusive, FailAction, STORE_SITES};
use dex_relational::{tuple, Governor, Instance};
use dex_store::{fsck, ChaseState, Store, StoreMode, StoreOptions, StoreSink};

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

fn opts() -> StoreOptions {
    StoreOptions {
        // Snapshot every other round so the matrix exercises WAL
        // appends, periodic snapshots, and WAL truncation.
        snapshot_every: 2,
        sync: false,
    }
}

/// Records every committed boundary of the uninterrupted run.
#[derive(Default)]
struct Recorder {
    boundaries: Vec<ChaseState>,
}

impl CheckpointSink for Recorder {
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
        self.boundaries.push(ChaseState {
            instance: cp.target.clone(),
            round: cp.round,
            next_null: cp.next_null,
            complete: cp.complete,
        });
        Ok(())
    }
}

/// The recovered state must be bit-identical to one of the committed
/// boundaries: same round, same instance, same next-null position.
fn assert_is_a_boundary(state: &ChaseState, boundaries: &[ChaseState], ctx: &str) {
    let hit = boundaries
        .iter()
        .find(|b| b.round == state.round)
        .unwrap_or_else(|| {
            panic!(
                "{ctx}: recovered round {} is not a committed boundary",
                state.round
            )
        });
    assert_eq!(
        state.instance, hit.instance,
        "{ctx}: instance differs at round {}",
        state.round
    );
    assert_eq!(
        state.next_null, hit.next_null,
        "{ctx}: null generator differs"
    );
}

#[test]
fn fault_at_every_site_action_and_ordinal_recovers_to_a_committed_round() {
    let _gate = exclusive();
    clear();

    let (m, src) = fixture();
    // Ground truth: every committed boundary and the final instance.
    let mut rec = Recorder::default();
    let truth = chase(
        &m,
        Start::Fresh(&src),
        RunContext {
            sink: Some(&mut rec),
            ..RunContext::new(&Governor::unlimited())
        },
    )
    .unwrap()
    .into_result()
    .unwrap();
    assert!(
        rec.boundaries.len() >= 3,
        "fixture must commit several rounds"
    );

    let actions = [
        FailAction::Error,
        FailAction::ShortWrite(0),
        FailAction::ShortWrite(3),
        FailAction::ShortWrite(11),
        FailAction::Panic,
    ];

    let mut faulted_runs = 0usize;
    for &site in STORE_SITES {
        for action in actions {
            // Sweep the hit ordinal until the run stops faulting —
            // that covers every boundary the site participates in.
            for nth in 1..=16u64 {
                let dir = TempDir::new(&format!("{}_{action:?}_{nth}", site.replace('.', "_")));
                clear();
                arm(site, action, nth);

                let (m, src) = fixture();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut store =
                        Store::create(&dir, StoreMode::Chase, MAPPING, &src, opts()).unwrap();
                    let mut sink = StoreSink::new(&mut store);
                    chase(
                        &m,
                        Start::Fresh(&src),
                        RunContext {
                            sink: Some(&mut sink),
                            ..RunContext::new(&Governor::unlimited())
                        },
                    )
                }));
                clear();

                let ctx = format!("{site}/{action:?}/hit {nth}");
                let faulted = match outcome {
                    // Panic action unwound mid-checkpoint.
                    Err(_) => true,
                    // Error/ShortWrite surface as a typed sink failure.
                    Ok(Err(dex_chase::ChaseError::Checkpoint(msg))) => {
                        assert!(msg.contains(site), "{ctx}: error names the site: {msg}");
                        true
                    }
                    Ok(Err(e)) => panic!("{ctx}: unexpected error {e}"),
                    // The ordinal exceeded the site's hits: clean run.
                    Ok(Ok(out)) => {
                        let res = out.into_result().unwrap();
                        assert_eq!(res.target, truth.target, "{ctx}: unfaulted run must agree");
                        false
                    }
                };
                if !faulted {
                    break; // higher ordinals can't fire either
                }
                faulted_runs += 1;

                // ---- A crashed process restarts ----
                let report = fsck::fsck(&dir).unwrap();
                if report.wal_torn {
                    // Torn tails are repairable; everything else must
                    // already verify.
                    let actions = fsck::repair(&dir).unwrap();
                    assert!(!actions.is_empty(), "{ctx}: torn WAL repairs");
                    assert!(
                        !fsck::fsck(&dir).unwrap().wal_torn,
                        "{ctx}: repair clears tear"
                    );
                }

                let mut store = Store::open(&dir, opts()).unwrap();
                let recovered = store.recover().unwrap();
                let final_target = match recovered {
                    None => {
                        // Crash before the first checkpoint: restart
                        // the whole exchange from the durable source.
                        let src = store.source().unwrap();
                        assert_eq!(src, fixture().1, "{ctx}: source survives");
                        let mut sink = StoreSink::new(&mut store);
                        chase(
                            &m,
                            Start::Fresh(&src),
                            RunContext {
                                sink: Some(&mut sink),
                                ..RunContext::new(&Governor::unlimited())
                            },
                        )
                        .unwrap()
                        .into_result()
                        .unwrap()
                        .target
                    }
                    Some(r) => {
                        assert_is_a_boundary(&r.state, &rec.boundaries, &ctx);
                        if r.state.complete {
                            r.state.instance
                        } else {
                            store.prepare_resume(&r.state).unwrap();
                            let mut sink = StoreSink::new(&mut store);
                            chase(
                                &m,
                                Start::Resume(r.state.clone().into()),
                                RunContext {
                                    sink: Some(&mut sink),
                                    ..RunContext::new(&Governor::unlimited())
                                },
                            )
                            .unwrap()
                            .into_result()
                            .unwrap()
                            .target
                        }
                    }
                };
                assert_eq!(
                    final_target, truth.target,
                    "{ctx}: recovery + resume ≡ uninterrupted (same tuples, same nulls)"
                );

                // The store now holds the finished state durably.
                let done = Store::open(&dir, opts())
                    .unwrap()
                    .recover()
                    .unwrap()
                    .unwrap();
                assert!(done.state.complete, "{ctx}: final checkpoint durable");
                assert_eq!(done.state.instance, truth.target);
            }
        }
    }
    assert!(
        faulted_runs >= STORE_SITES.len() * actions.len(),
        "matrix must actually inject faults (got {faulted_runs})"
    );
}

/// A torn WAL append must never resurrect: after recovery + resume,
/// re-running recovery from the finished store sees no tear.
#[test]
fn short_write_lengths_cover_the_record_framing() {
    let _gate = exclusive();
    clear();
    // Cut inside the length field (2), inside the checksum (6), and
    // inside the payload (20): all three must scan as torn tails.
    for cut in [2u64, 6, 20] {
        let dir = TempDir::new(&format!("framing_{cut}"));
        clear();
        // Hit 2 skips the round-0 snapshot path; the first WAL append
        // is for round 1.
        arm("store.wal_append", FailAction::ShortWrite(cut), 1);
        let (m, src) = fixture();
        let mut store = Store::create(&dir, StoreMode::Chase, MAPPING, &src, opts()).unwrap();
        let mut sink = StoreSink::new(&mut store);
        let err = chase(
            &m,
            Start::Fresh(&src),
            RunContext {
                sink: Some(&mut sink),
                ..RunContext::new(&Governor::unlimited())
            },
        )
        .expect_err("short write must abort the run");
        assert!(matches!(err, dex_chase::ChaseError::Checkpoint(_)));
        clear();

        let report = fsck::fsck(&dir).unwrap();
        assert!(report.wal_torn, "cut at {cut} bytes is a torn tail");
        assert_eq!(report.wal_records, 0, "no complete record survives");
        fsck::repair(&dir).unwrap();
        let clean = fsck::fsck(&dir).unwrap();
        assert!(
            !clean.wal_torn && clean.is_clean(),
            "repaired store is clean"
        );
    }
}
