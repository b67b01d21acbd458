//! The migration crash matrix — live migration's acceptance property.
//!
//! For both ways to start a migration ([`Migration::begin`], which
//! reads the staged `source.bin` back on its first run, and
//! [`Migration::begin_owned`], which chases the source it was handed),
//! every migration fail-point site (`migrate.plan`,
//! `migrate.round_commit`, `migrate.finalize`) *and* every nested
//! store IO site (the staging chase fires `store.*` too), every fault
//! action (typed error, torn short writes at several byte cuts,
//! panic), and every hit ordinal until the fault stops firing: run a
//! live migration into the fault, then require that
//!
//! 1. while no commit marker verifies, the **old store's bytes are
//!    untouched** — bit-identical to before the migration began — and
//!    `fsck` reports a *clean* store with a "resumable migration in
//!    progress" note, never spurious corruption;
//! 2. whatever staging chase state is durable is **bit-identical to a
//!    committed boundary** of the uninterrupted migration (same
//!    instance, same round, same null-generator position);
//! 3. resuming — `Migration::resume` when the plan is durable, a
//!    fresh `begin` when the crash tore the very first write,
//!    `roll_forward` once the marker verifies — completes to the
//!    exact store the uninterrupted migration produces: same mapping
//!    text, same tuples, same null allocation order.
//!
//! Compiled only with `--features failpoints`.
#![cfg(feature = "failpoints")]

#[path = "../../../tests/common/mod.rs"]
mod temp_dir;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use temp_dir::TempDir;

use dex_chase::{chase, ChaseOptions, Checkpoint, CheckpointSink, RunContext, Start};
use dex_logic::parse_mapping;
use dex_relational::fail::{arm, clear, exclusive, FailAction, MIGRATE_SITES, STORE_SITES};
use dex_relational::{tuple, Governor, Instance, RelSchema, Schema};
use dex_store::migrate::{self, MigrateStatus};
use dex_store::{
    fsck, ChaseState, MigrateError, MigratePlan, MigrateRun, Migration, Store, StoreError,
    StoreMode, StoreOptions,
};

const OLD_SCHEMA: &str = "target T(a, b);\n";
const NEW_SCHEMA: &str = "target T2(a, b, c);\ntarget Aud(a);\ntarget Aud2(a);\n";
// Several target-tgd rounds so `migrate.round_commit` and the nested
// `store.*` sites each fire more than once.
const MIGRATION: &str = r#"
    source v0__T(a, b);
    target T2(a, b, c);
    target Aud(a);
    target Aud2(a);
    v0__T(a, b) -> T2(a, b, c);
    T2(a, b, c) -> Aud(a);
    Aud(a) -> Aud2(a);
"#;

fn plan() -> MigratePlan {
    MigratePlan {
        schema_text: NEW_SCHEMA.to_string(),
        mapping_text: MIGRATION.to_string(),
    }
}

fn old_instance() -> Instance {
    let schema =
        Schema::with_relations(vec![RelSchema::untyped("T", vec!["a", "b"]).unwrap()]).unwrap();
    Instance::with_facts(
        schema,
        vec![("T", vec![tuple!["x", 1i64], tuple!["y", 2i64]])],
    )
    .unwrap()
}

/// The old instance renamed into the migration's source vocabulary —
/// what `dexcli migrate` computes via `dex_evolution::into_prefixed`.
fn prefixed_source() -> Instance {
    let schema =
        Schema::with_relations(vec![RelSchema::untyped("v0__T", vec!["a", "b"]).unwrap()]).unwrap();
    Instance::with_facts(
        schema,
        vec![("v0__T", vec![tuple!["x", 1i64], tuple!["y", 2i64]])],
    )
    .unwrap()
}

fn opts() -> StoreOptions {
    StoreOptions {
        snapshot_every: 2,
        sync: false,
    }
}

/// Build a live store holding a completed exchange over the old
/// schema: the thing a migration migrates.
fn build_old_store(dir: &Path) {
    let inst = old_instance();
    let mut store = Store::create(dir, StoreMode::Exchange, OLD_SCHEMA, &inst, opts()).unwrap();
    let mut sink = dex_store::StoreSink::new(&mut store);
    sink.on_checkpoint(Checkpoint {
        round: 0,
        next_null: 0,
        target: &inst,
        delta: None,
        complete: true,
    })
    .unwrap();
}

/// Bytes of every live (top-level) store file, keyed by name.
fn live_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    ["store.meta", "source.bin", "snapshot.bin", "wal.log"]
        .iter()
        .filter_map(|f| std::fs::read(dir.join(f)).ok().map(|b| (f.to_string(), b)))
        .collect()
}

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
        "{ctx}: staged instance differs at round {}",
        state.round
    );
    assert_eq!(
        state.next_null, hit.next_null,
        "{ctx}: null generator differs"
    );
}

/// How a migration is started.
#[derive(Clone, Copy, Debug)]
enum Begin {
    /// [`Migration::begin`]: the first run decodes `source.bin`.
    Borrowed,
    /// [`Migration::begin_owned`]: the first run chases the source it
    /// holds, as `dexcli migrate` and dexd do.
    Owned,
}

fn begin(dir: &Path, how: Begin) -> Result<Migration, MigrateError> {
    match how {
        Begin::Borrowed => Migration::begin(dir, &plan(), &prefixed_source(), opts()),
        Begin::Owned => Migration::begin_owned(dir, &plan(), prefixed_source(), opts()),
    }
}

/// Drive the migration front to back; the fault makes this return an
/// error (or unwind) somewhere along the way.
fn drive(dir: &Path, how: Begin) -> Result<(), MigrateError> {
    let mut mig = begin(dir, how)?;
    match mig.run(ChaseOptions::default(), &Governor::unlimited())? {
        MigrateRun::Done(_) => mig.finalize(),
        MigrateRun::Suspended(r) => panic!("unlimited run suspended: {r:?}"),
    }
}

/// Recover as a restarted process would and finish the migration.
fn recover_and_finish(dir: &Path, how: Begin, ctx: &str, boundaries: &[ChaseState]) {
    match migrate::status(dir).unwrap() {
        MigrateStatus::Committed => {
            assert!(migrate::roll_forward(dir, false).unwrap(), "{ctx}");
        }
        _ => {
            // Whatever staging chase state survived must be a real
            // committed boundary of the uninterrupted run.
            if let Ok(mig) = Migration::resume(dir, opts()) {
                if let Some(r) = mig.recover().unwrap() {
                    assert_is_a_boundary(&r.state, boundaries, ctx);
                }
            }
            let mut mig = match Migration::resume(dir, opts()) {
                Ok(m) => m,
                // The crash tore plan.bin before any chase data became
                // durable: start the migration over.
                Err(MigrateError::Plan { .. }) => begin(dir, how).unwrap(),
                Err(e) => panic!("{ctx}: resume failed: {e}"),
            };
            match mig
                .run(ChaseOptions::default(), &Governor::unlimited())
                .unwrap()
            {
                MigrateRun::Done(_) => mig.finalize().unwrap(),
                MigrateRun::Suspended(r) => panic!("{ctx}: unlimited resume suspended: {r:?}"),
            }
        }
    }
}

/// Open the migrated store and pin the full outcome.
fn assert_migrated(dir: &Path, truth: &ChaseState, ctx: &str) {
    assert_eq!(
        migrate::status(dir).unwrap(),
        MigrateStatus::None,
        "{ctx}: staging cleaned up"
    );
    let store = Store::open(dir, opts()).unwrap();
    assert_eq!(
        store.mapping_text(),
        NEW_SCHEMA,
        "{ctx}: meta is the new schema"
    );
    assert!(
        store.source().unwrap().facts().next().is_none(),
        "{ctx}: migrated store's source is empty"
    );
    let rec = store.recover().unwrap().unwrap();
    assert!(rec.state.complete, "{ctx}: snapshot marks a finished chase");
    assert_eq!(
        rec.state.instance, truth.instance,
        "{ctx}: migrated instance ≡ uninterrupted (same tuples, same nulls)"
    );
    let report = fsck::fsck(dir).unwrap();
    assert!(
        report.is_clean(),
        "{ctx}: migrated store fscks clean: {report}"
    );
}

#[test]
fn fault_at_every_site_action_and_ordinal_leaves_old_store_intact_and_resumes() {
    let _gate = exclusive();
    clear();

    // Ground truth: the uninterrupted migration chase's boundaries and
    // final state (same mapping, same source, same options as the
    // staged runs — determinism makes them comparable).
    let mapping = parse_mapping(MIGRATION).unwrap();
    let mut rec = Recorder::default();
    chase(
        &mapping,
        Start::Fresh(&prefixed_source()),
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
    let truth = rec.boundaries.last().unwrap().clone();
    assert!(truth.complete);

    let actions = [
        FailAction::Error,
        FailAction::ShortWrite(0),
        FailAction::ShortWrite(3),
        FailAction::ShortWrite(11),
        FailAction::Panic,
    ];

    let sites: Vec<&str> = MIGRATE_SITES.iter().chain(STORE_SITES).copied().collect();
    let starts = [Begin::Borrowed, Begin::Owned];
    let mut faulted_runs = 0usize;
    for (how, site) in starts
        .iter()
        .flat_map(|&how| sites.iter().map(move |&site| (how, site)))
    {
        for action in actions {
            for nth in 1..=16u64 {
                let dir = TempDir::new(&format!(
                    "{how:?}_{}_{action:?}_{nth}",
                    site.replace('.', "_")
                ));
                build_old_store(&dir);
                let before = live_bytes(&dir);

                clear();
                arm(site, action, nth);
                let outcome = catch_unwind(AssertUnwindSafe(|| drive(&dir, how)));
                clear();

                let ctx = format!("{how:?}/{site}/{action:?}/hit {nth}");
                let faulted = match outcome {
                    Err(_) => true, // injected panic unwound
                    Ok(Err(e)) => {
                        let msg = e.to_string();
                        assert!(
                            msg.contains(site) || msg.contains("injected"),
                            "{ctx}: error names the injection: {msg}"
                        );
                        true
                    }
                    Ok(Ok(())) => {
                        // Ordinal exceeded the site's hits: clean run.
                        assert_migrated(&dir, &truth, &ctx);
                        false
                    }
                };
                if !faulted {
                    break; // higher ordinals can't fire either
                }
                faulted_runs += 1;

                // ---- A crashed process restarts ----
                let status = migrate::status(&dir).unwrap();
                if status != MigrateStatus::Committed {
                    assert_eq!(
                        live_bytes(&dir),
                        before,
                        "{ctx}: old store bytes untouched before commit"
                    );
                    let report = fsck::fsck(&dir).unwrap();
                    assert!(
                        report.is_clean(),
                        "{ctx}: in-progress migration is not corruption: {report}"
                    );
                    if matches!(status, MigrateStatus::InProgress { .. }) {
                        assert!(
                            report
                                .notes
                                .iter()
                                .any(|n| n.contains("migration in progress")),
                            "{ctx}: fsck notes the resumable migration"
                        );
                    }
                } else {
                    let report = fsck::fsck(&dir).unwrap();
                    assert!(
                        report
                            .problems
                            .iter()
                            .any(|p| p.contains("committed migration")),
                        "{ctx}: fsck flags the pending roll-forward: {report}"
                    );
                }

                recover_and_finish(&dir, how, &ctx, &rec.boundaries);
                assert_migrated(&dir, &truth, &ctx);
            }
        }
    }
    assert!(
        faulted_runs >= starts.len() * sites.len() * actions.len(),
        "matrix must actually inject faults (got {faulted_runs})"
    );
}

/// `fsck --repair` semantics: repairing a store with a committed
/// migration completes the roll-forward; repairing one with an
/// in-progress migration leaves the resumable staging alone.
#[test]
fn repair_rolls_forward_committed_but_preserves_in_progress() {
    let _gate = exclusive();
    clear();

    // In progress: block the commit marker so the migration stays
    // uncommitted, then repair.
    let dir = TempDir::new("repair_inprogress");
    build_old_store(&dir);
    let mut mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
    let MigrateRun::Done(_) = mig
        .run(ChaseOptions::default(), &Governor::unlimited())
        .unwrap()
    else {
        panic!("unlimited run must complete");
    };
    arm("migrate.finalize", FailAction::Error, 1);
    assert!(mig.commit().is_err());
    clear();
    let actions = fsck::repair(&dir).unwrap();
    assert!(actions.is_empty(), "nothing to repair: {actions:?}");
    assert!(matches!(
        migrate::status(&dir).unwrap(),
        MigrateStatus::InProgress {
            chase_complete: true,
            ..
        }
    ));

    // Committed: the marker verifies; repair finishes the job.
    mig.commit().unwrap();
    let actions = fsck::repair(&dir).unwrap();
    assert!(
        actions.iter().any(|a| a.contains("roll-forward")),
        "repair completes the roll-forward: {actions:?}"
    );
    assert_eq!(migrate::status(&dir).unwrap(), MigrateStatus::None);
    assert_eq!(
        Store::open(&dir, opts()).unwrap().mapping_text(),
        NEW_SCHEMA
    );
}

/// A torn `COMMIT` marker (short write) is *not* a commit: the old
/// store stays authoritative and the next finalize rewrites it.
#[test]
fn torn_commit_marker_is_no_commit() {
    let _gate = exclusive();
    clear();
    let dir = TempDir::new("torn_commit");
    build_old_store(&dir);
    let before = live_bytes(&dir);
    let mut mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
    mig.run(ChaseOptions::default(), &Governor::unlimited())
        .unwrap();
    arm("migrate.finalize", FailAction::ShortWrite(13), 1);
    let err = mig.commit().expect_err("short write must surface");
    assert!(matches!(
        err,
        MigrateError::Store(StoreError::Injected { .. })
    ));
    clear();
    assert!(
        dir.join("migrate").join("COMMIT").exists(),
        "a torn marker file exists"
    );
    assert_ne!(
        migrate::status(&dir).unwrap(),
        MigrateStatus::Committed,
        "a torn marker does not verify"
    );
    assert_eq!(live_bytes(&dir), before, "old store untouched");
    assert!(!migrate::roll_forward(&dir, false).unwrap());
    mig.finalize().unwrap();
    assert_eq!(
        Store::open(&dir, opts()).unwrap().mapping_text(),
        NEW_SCHEMA
    );
}
