//! Crash-safe live schema migration of a persisted store.
//!
//! A migration rewrites the store's materialized instance under a
//! *migration mapping* (compiled by `dex-evolution` from a catalog
//! diff) without ever putting the old store at risk: all work happens
//! in a staging directory beside the live files, and the live files
//! change only after a checksummed commit marker is durable.
//!
//! ```text
//! <dir>/migrate/              staging (absent when no migration runs)
//! <dir>/migrate/plan.bin      framed: new-schema text + mapping text
//! <dir>/migrate/store/        a nested Store chasing the migration
//! <dir>/migrate/progress.bin  advisory: last committed round
//! <dir>/migrate/next/         the finished replacement store files
//! <dir>/migrate/COMMIT        framed marker — THE commit point
//! ```
//!
//! Protocol, in write order:
//!
//! 1. **Plan** (`migrate.plan` fail site): `plan.bin` records what the
//!    migration is doing, so a crashed process can resume without the
//!    caller re-deriving the diff. A nested [`Store`] is created with
//!    the migration mapping and the version-prefixed old instance as
//!    its source.
//! 2. **Chase** (`migrate.round_commit` fail site): the migration runs
//!    as an ordinary governed, checkpointed chase into the nested
//!    store — every committed round is durable (WAL + periodic
//!    snapshots), budget exhaustion and SIGTERM-style cancellation
//!    leave a resumable boundary, and after each round an advisory
//!    `progress.bin` is rewritten (a torn one is harmless: the nested
//!    store's own recovery is authoritative).
//! 3. **Commit** (`migrate.finalize` fail site): the four replacement
//!    store files are built and fsynced under `next/`, then the
//!    `COMMIT` marker is written. A marker that does not verify is no
//!    marker: the migration is still merely in progress.
//! 4. **Roll-forward**: each file under `next/` is renamed over its
//!    live counterpart, then the staging directory is removed. Every
//!    step is idempotent — a crash mid-roll-forward leaves the marker
//!    in place, and the next [`roll_forward`] call (from `resume`,
//!    `fsck --repair`, or the daemon) converges to the same result.
//!
//! Until step 3 completes, the old store's bytes are untouched; after
//! it, the new store is the only possible outcome. There is no state
//! from which recovery cannot proceed.

use std::fs;
use std::path::{Path, PathBuf};

use crate::blob;
use crate::codec::{Decoder, Encoder};
use crate::error::StoreError;
use crate::snapshot::{self, ChaseState, SNAPSHOT_FILE};
use crate::store::{
    write_file_faulted, write_plain, Recovered, Store, StoreMode, StoreOptions, META_FILE,
    META_MAGIC, SOURCE_FILE, SOURCE_MAGIC, WAL_FILE,
};
use crate::wal;
use dex_chase::{
    chase, ChaseError, ChaseOptions, ChaseOutcome, Checkpoint, CheckpointSink, RunContext, Start,
};
use dex_relational::{ExhaustionReport, Governor, Instance};

/// Staging directory name, under the live store directory.
pub const MIGRATE_DIR: &str = "migrate";
/// Plan file name, under the staging directory.
pub const PLAN_FILE: &str = "plan.bin";
/// Advisory progress file name, under the staging directory.
pub const PROGRESS_FILE: &str = "progress.bin";
/// Replacement-store directory name, under the staging directory.
pub const NEXT_DIR: &str = "next";
/// Nested chase-store directory name, under the staging directory.
pub const STAGE_STORE_DIR: &str = "store";
/// Commit-marker file name, under the staging directory.
pub const COMMIT_FILE: &str = "COMMIT";

/// Magic bytes opening `plan.bin`.
pub const PLAN_MAGIC: &[u8; 8] = b"DEXPLAN1";
/// Magic bytes opening `progress.bin`.
pub const PROGRESS_MAGIC: &[u8; 8] = b"DEXPROG1";
/// Magic bytes opening `COMMIT`.
pub const COMMIT_MAGIC: &[u8; 8] = b"DEXCMT01";

/// What a staged migration is doing: the evolved schema the store is
/// moving to, and the compiled migration mapping that moves the data.
/// Both are stored as `.dex` source text so a resuming process (or a
/// human reading the staging directory) needs no other context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigratePlan {
    /// The evolved schema, as re-parseable `.dex` declarations. This
    /// becomes the committed store's `store.meta` mapping text.
    pub schema_text: String,
    /// The compiled migration mapping (`v0__`-prefixed old schema →
    /// evolved schema), as re-parseable `.dex` source.
    pub mapping_text: String,
}

/// Where a store stands with respect to live migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateStatus {
    /// No staging directory: the store is not migrating.
    None,
    /// A staged migration exists but has not committed. The live store
    /// files are untouched and authoritative; the staging chase can be
    /// resumed (or the whole directory aborted) at any time.
    InProgress {
        /// Last committed chase round, when any boundary is durable.
        round: Option<u64>,
        /// Whether the staged chase already reached fixpoint (only
        /// the commit marker itself is missing).
        chase_complete: bool,
    },
    /// The `COMMIT` marker verifies: the migration is decided and only
    /// the idempotent roll-forward remains. The live files may be a
    /// mix of old and new until [`roll_forward`] completes.
    Committed,
}

/// Errors running a live migration (beyond plain [`StoreError`]s).
#[derive(Debug)]
pub enum MigrateError {
    /// An underlying store failure.
    Store(StoreError),
    /// The staged plan is unusable (mapping text does not parse, or
    /// the staging directory is torn beyond what resume can use).
    Plan {
        /// What was wrong with the plan.
        detail: String,
    },
    /// The migration chase itself failed.
    Chase(ChaseError),
    /// `finalize` was called before the staged chase reached fixpoint.
    Incomplete {
        /// The last committed round.
        round: u64,
    },
    /// The migration has already committed; only [`roll_forward`]
    /// applies now.
    Committed,
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Store(e) => write!(f, "{e}"),
            MigrateError::Plan { detail } => write!(f, "unusable migration plan: {detail}"),
            MigrateError::Chase(e) => write!(f, "migration chase failed: {e}"),
            MigrateError::Incomplete { round } => write!(
                f,
                "the staged migration has not reached fixpoint (round {round}); run it to completion before finalizing"
            ),
            MigrateError::Committed => write!(
                f,
                "the migration has already committed; roll-forward is the only remaining step"
            ),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<StoreError> for MigrateError {
    fn from(e: StoreError) -> Self {
        MigrateError::Store(e)
    }
}

impl From<ChaseError> for MigrateError {
    fn from(e: ChaseError) -> Self {
        MigrateError::Chase(e)
    }
}

/// How a [`Migration::run`] call ended.
#[derive(Debug)]
pub enum MigrateRun {
    /// The migration chase reached fixpoint; [`Migration::finalize`]
    /// may now commit. Carries the final staged state.
    Done(ChaseState),
    /// A budget or cancellation stopped the chase at a durable
    /// boundary; re-run (possibly in another process) to continue.
    Suspended(ExhaustionReport),
}

fn encode_plan(plan: &MigratePlan) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(&plan.schema_text);
    e.put_str(&plan.mapping_text);
    blob::frame(PLAN_MAGIC, &e.into_bytes())
}

fn decode_plan(bytes: &[u8]) -> Result<MigratePlan, StoreError> {
    let payload = blob::unframe(PLAN_MAGIC, bytes, PLAN_FILE)?;
    let mut d = Decoder::new(payload, PLAN_FILE);
    let schema_text = d.get_str("plan schema text")?;
    let mapping_text = d.get_str("plan mapping text")?;
    d.finish()?;
    Ok(MigratePlan {
        schema_text,
        mapping_text,
    })
}

fn encode_progress(round: u64, complete: bool) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(round);
    e.put_u8(u8::from(complete));
    blob::frame(PROGRESS_MAGIC, &e.into_bytes())
}

fn decode_progress(bytes: &[u8]) -> Result<(u64, bool), StoreError> {
    let payload = blob::unframe(PROGRESS_MAGIC, bytes, PROGRESS_FILE)?;
    let mut d = Decoder::new(payload, PROGRESS_FILE);
    let round = d.get_u64("progress round")?;
    let complete = d.get_u8("progress complete flag")? != 0;
    d.finish()?;
    Ok((round, complete))
}

fn encode_commit(round: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(round);
    blob::frame(COMMIT_MAGIC, &e.into_bytes())
}

fn commit_verifies(staging: &Path) -> bool {
    match fs::read(staging.join(COMMIT_FILE)) {
        Ok(bytes) => blob::unframe(COMMIT_MAGIC, &bytes, COMMIT_FILE).is_ok(),
        Err(_) => false,
    }
}

/// Where the store at `dir` stands with respect to live migration.
/// Read-only, and deliberately forgiving: torn staging internals
/// (a half-written plan, a torn progress file) still classify as
/// [`MigrateStatus::InProgress`] — only a *verifying* commit marker
/// means [`MigrateStatus::Committed`].
pub fn status(dir: &Path) -> Result<MigrateStatus, StoreError> {
    let staging = dir.join(MIGRATE_DIR);
    if !staging.is_dir() {
        return Ok(MigrateStatus::None);
    }
    if commit_verifies(&staging) {
        return Ok(MigrateStatus::Committed);
    }
    // Advisory progress first, the nested store's snapshot as the
    // authoritative fallback. Any of this may be torn; that is still
    // just "in progress".
    let mut round = None;
    let mut chase_complete = false;
    if let Ok(bytes) = fs::read(staging.join(PROGRESS_FILE)) {
        if let Ok((r, c)) = decode_progress(&bytes) {
            round = Some(r);
            chase_complete = c;
        }
    }
    if round.is_none() {
        if let Ok(Some(s)) = snapshot::read(&staging.join(STAGE_STORE_DIR)) {
            round = Some(s.round);
            chase_complete = s.complete;
        }
    }
    Ok(MigrateStatus::InProgress {
        round,
        chase_complete,
    })
}

/// The staged plan at `dir`, if a usable one exists. `Ok(None)` when
/// there is no staging directory *or* the plan never became durable
/// and no chase data exists either (a crash inside the very first
/// write) — in that case [`Migration::begin`] may simply start over.
pub fn staged_plan(dir: &Path) -> Result<Option<MigratePlan>, StoreError> {
    let staging = dir.join(MIGRATE_DIR);
    if !staging.is_dir() {
        return Ok(None);
    }
    match fs::read(staging.join(PLAN_FILE)) {
        Ok(bytes) => match decode_plan(&bytes) {
            Ok(plan) => Ok(Some(plan)),
            // A torn plan with no chase data behind it is wreckage
            // from a crash inside the very first write — recoverable
            // by starting over, so not corruption. With chase data
            // present the plan really is lost: surface it.
            Err(e) if staging.join(STAGE_STORE_DIR).join(META_FILE).exists() => Err(e),
            Err(_) => Ok(None),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StoreError::io(format!("read {PLAN_FILE}"))(e)),
    }
}

/// A live migration of the store at `dir`, staged under
/// `dir/migrate/`. Obtained from [`Migration::begin`] (fresh) or
/// [`Migration::resume`] (after a crash, restart, or budget stop).
pub struct Migration {
    dir: PathBuf,
    staging: PathBuf,
    plan: MigratePlan,
    store: Store,
    opts: StoreOptions,
}

impl Migration {
    /// Stage a fresh migration of the store at `dir`. `source` is the
    /// old store's materialized instance, already renamed into the
    /// migration mapping's source vocabulary (the `v0__` prefix).
    ///
    /// Refuses when a usable staging directory already exists
    /// ([`StoreError::MigrationInProgress`]) — resume or abort it
    /// first. Wreckage from a crash *before* anything became durable
    /// (a torn `plan.bin`, no chase data) is silently cleared.
    pub fn begin(
        dir: &Path,
        plan: &MigratePlan,
        source: &Instance,
        opts: StoreOptions,
    ) -> Result<Migration, MigrateError> {
        let staging = dir.join(MIGRATE_DIR);
        if staging.is_dir() {
            let usable = staged_plan(dir).map(|p| p.is_some()).unwrap_or(false)
                || staging.join(STAGE_STORE_DIR).join(META_FILE).exists()
                || commit_verifies(&staging);
            if usable {
                return Err(StoreError::MigrationInProgress {
                    dir: dir.to_path_buf(),
                }
                .into());
            }
            fs::remove_dir_all(&staging)
                .map_err(StoreError::io(format!("clear torn {MIGRATE_DIR}/")))?;
        }
        fs::create_dir_all(&staging)
            .map_err(StoreError::io(format!("create {}", staging.display())))?;

        write_file_faulted(
            &staging.join(PLAN_FILE),
            "migrate.plan",
            &encode_plan(plan),
            opts.sync,
        )?;
        let store = Store::create(
            &staging.join(STAGE_STORE_DIR),
            StoreMode::Exchange,
            &plan.mapping_text,
            source,
            opts,
        )?;
        if opts.sync {
            snapshot::sync_dir(&staging)?;
        }
        Ok(Migration {
            dir: dir.to_path_buf(),
            staging,
            plan: plan.clone(),
            store,
            opts,
        })
    }

    /// Reattach to the staged migration at `dir` (after a crash, a
    /// restart, or a budget stop). Errors when nothing resumable is
    /// staged, or when the migration has already committed (use
    /// [`roll_forward`] for that).
    pub fn resume(dir: &Path, opts: StoreOptions) -> Result<Migration, MigrateError> {
        let staging = dir.join(MIGRATE_DIR);
        if commit_verifies(&staging) {
            return Err(MigrateError::Committed);
        }
        let plan = staged_plan(dir)?.ok_or_else(|| MigrateError::Plan {
            detail: format!(
                "no staged migration at {} (nothing to resume)",
                staging.display()
            ),
        })?;
        let store = Store::open(&staging.join(STAGE_STORE_DIR), opts)?;
        Ok(Migration {
            dir: dir.to_path_buf(),
            staging,
            plan,
            store,
            opts,
        })
    }

    /// The staged plan.
    pub fn plan(&self) -> &MigratePlan {
        &self.plan
    }

    /// The live store directory being migrated.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Recover the nested staging store's last committed boundary
    /// (`None` before the first checkpoint).
    pub fn recover(&self) -> Result<Option<Recovered>, StoreError> {
        self.store.recover()
    }

    /// Run (or continue) the migration chase to fixpoint or budget
    /// exhaustion. Every committed round is durable before the chase
    /// proceeds; a [`MigrateRun::Suspended`] return leaves the staging
    /// area resumable by a later call — in this process or another.
    pub fn run(&mut self, opts: ChaseOptions, gov: &Governor) -> Result<MigrateRun, MigrateError> {
        let mapping =
            dex_logic::parse_mapping(&self.plan.mapping_text).map_err(|e| MigrateError::Plan {
                detail: format!("migration mapping does not parse: {e}"),
            })?;
        // The block drops a fresh run's source before the read-back
        // below loads a second instance.
        let outcome = {
            let src;
            let start = match self.store.recover()? {
                Some(r) if r.state.complete => return Ok(MigrateRun::Done(r.state)),
                Some(r) => {
                    self.store.prepare_resume(&r.state)?;
                    Start::Resume(r.state.into())
                }
                None => {
                    src = self.store.source()?;
                    Start::Fresh(&src)
                }
            };
            let mut sink = MigrateSink {
                store: &mut self.store,
                staging: &self.staging,
                sync: self.opts.sync,
            };
            let ctx = RunContext {
                gov,
                opts,
                sink: Some(&mut sink),
            };
            chase(&mapping, start, ctx)?
        };
        match outcome {
            ChaseOutcome::Complete(_) => {
                // The sink persisted the complete boundary; read it
                // back so the caller gets exactly what is on disk.
                let rec = self.store.recover()?.ok_or_else(|| MigrateError::Plan {
                    detail: "completed chase left no durable snapshot".into(),
                })?;
                Ok(MigrateRun::Done(rec.state))
            }
            ChaseOutcome::Exhausted(e) => Ok(MigrateRun::Suspended(e.report)),
        }
    }

    /// Decide the migration: build the replacement store files under
    /// `next/` and write the `COMMIT` marker (the commit point, behind
    /// the `migrate.finalize` fail site). Requires the staged chase to
    /// have reached fixpoint. Does **not** touch the live files — call
    /// [`roll_forward`] (or [`Migration::finalize`]) for that.
    pub fn commit(&mut self) -> Result<(), MigrateError> {
        if commit_verifies(&self.staging) {
            return Ok(());
        }
        let rec = self
            .store
            .recover()?
            .ok_or(MigrateError::Incomplete { round: 0 })?;
        if !rec.state.complete {
            return Err(MigrateError::Incomplete {
                round: rec.state.round,
            });
        }
        let state = rec.state;

        let next = self.staging.join(NEXT_DIR);
        fs::create_dir_all(&next).map_err(StoreError::io(format!("create {NEXT_DIR}/")))?;

        let mut e = Encoder::new();
        e.put_u8(StoreMode::Exchange.to_byte());
        e.put_str(&self.plan.schema_text);
        write_plain(
            &next.join(META_FILE),
            &blob::frame(META_MAGIC, &e.into_bytes()),
            self.opts.sync,
        )?;

        // The migrated data lives in the (complete) snapshot; the new
        // store's "source" is an empty instance over the new schema.
        let mut e = Encoder::new();
        e.put_instance(&Instance::empty(state.instance.schema().clone()));
        write_plain(
            &next.join(SOURCE_FILE),
            &blob::frame(SOURCE_MAGIC, &e.into_bytes()),
            self.opts.sync,
        )?;

        write_plain(
            &next.join(SNAPSHOT_FILE),
            &snapshot::encode(&state),
            self.opts.sync,
        )?;
        write_plain(&next.join(WAL_FILE), &wal::header_bytes(), self.opts.sync)?;
        if self.opts.sync {
            snapshot::sync_dir(&next)?;
        }

        write_file_faulted(
            &self.staging.join(COMMIT_FILE),
            "migrate.finalize",
            &encode_commit(state.round),
            self.opts.sync,
        )?;
        if self.opts.sync {
            snapshot::sync_dir(&self.staging)?;
        }
        Ok(())
    }

    /// [`Migration::commit`] followed by [`roll_forward`]: the normal
    /// way to finish a completed migration in one call.
    pub fn finalize(&mut self) -> Result<(), MigrateError> {
        self.commit()?;
        roll_forward(&self.dir, self.opts.sync)?;
        Ok(())
    }
}

/// Persists every migration-chase checkpoint into the nested staging
/// store, then rewrites the advisory `progress.bin` through the
/// `migrate.round_commit` fail site. The nested store's own WAL and
/// snapshots are the durable truth; progress is for `fsck` and humans.
struct MigrateSink<'a> {
    store: &'a mut Store,
    staging: &'a Path,
    sync: bool,
}

impl CheckpointSink for MigrateSink<'_> {
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
        self.store
            .record_checkpoint(&cp)
            .map_err(|e| e.to_string())?;
        write_file_faulted(
            &self.staging.join(PROGRESS_FILE),
            "migrate.round_commit",
            &encode_progress(cp.round, cp.complete),
            self.sync,
        )
        .map_err(|e| e.to_string())
    }
}

/// Finish a committed migration at `dir`: rename each replacement file
/// under `migrate/next/` over its live counterpart, then remove the
/// staging directory. Idempotent — call it as many times as crashes
/// demand; any interleaving converges to the fully-migrated store.
///
/// Returns `false` (and does nothing) when no verifying `COMMIT`
/// marker exists.
pub fn roll_forward(dir: &Path, sync: bool) -> Result<bool, StoreError> {
    let staging = dir.join(MIGRATE_DIR);
    if !commit_verifies(&staging) {
        return Ok(false);
    }
    let next = staging.join(NEXT_DIR);
    for file in [META_FILE, SOURCE_FILE, SNAPSHOT_FILE, WAL_FILE] {
        let src = next.join(file);
        if src.exists() {
            fs::rename(&src, dir.join(file))
                .map_err(StoreError::io(format!("roll forward {file}")))?;
        }
    }
    if sync {
        snapshot::sync_dir(dir)?;
    }
    fs::remove_dir_all(&staging).map_err(StoreError::io(format!("remove {MIGRATE_DIR}/")))?;
    if sync {
        snapshot::sync_dir(dir)?;
    }
    Ok(true)
}

/// Abandon an uncommitted staged migration at `dir`, deleting the
/// staging directory. The live store was never touched. Refuses once
/// the migration has committed — the decision is durable and only
/// [`roll_forward`] applies. Returns `false` when nothing was staged.
pub fn abort(dir: &Path) -> Result<bool, MigrateError> {
    let staging = dir.join(MIGRATE_DIR);
    if !staging.is_dir() {
        return Ok(false);
    }
    if commit_verifies(&staging) {
        return Err(MigrateError::Committed);
    }
    fs::remove_dir_all(&staging)
        .map_err(StoreError::io(format!("remove {MIGRATE_DIR}/")))
        .map_err(MigrateError::from)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use dex_relational::tuple;
    use dex_relational::{RelSchema, Schema};

    const OLD_SCHEMA: &str = "target T(a, b);\n";
    const NEW_SCHEMA: &str = "target T2(a, b, c);\ntarget Aud(a);\ntarget Aud2(a);\n";
    // Target tgds give the staged chase several committed rounds, so
    // budget stops land on a real boundary.
    const MIGRATION: &str = r#"
        source v0__T(a, b);
        target T2(a, b, c);
        target Aud(a);
        target Aud2(a);
        v0__T(a, b) -> T2(a, b, c);
        T2(a, b, c) -> Aud(a);
        Aud(a) -> Aud2(a);
    "#;

    fn prefixed_source() -> Instance {
        let schema =
            Schema::with_relations(vec![RelSchema::untyped("v0__T", vec!["a", "b"]).unwrap()])
                .unwrap();
        Instance::with_facts(
            schema,
            vec![("v0__T", vec![tuple!["x", 1i64], tuple!["y", 2i64]])],
        )
        .unwrap()
    }

    fn plan() -> MigratePlan {
        MigratePlan {
            schema_text: NEW_SCHEMA.to_string(),
            mapping_text: MIGRATION.to_string(),
        }
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            snapshot_every: 2,
            sync: false,
        }
    }

    fn old_store(dir: &Path) -> Store {
        Store::create(
            dir,
            StoreMode::Exchange,
            OLD_SCHEMA,
            &Instance::empty(
                Schema::with_relations(vec![RelSchema::untyped("T", vec!["a", "b"]).unwrap()])
                    .unwrap(),
            ),
            opts(),
        )
        .unwrap()
    }

    #[test]
    fn plan_and_progress_round_trip() {
        let p = plan();
        assert_eq!(decode_plan(&encode_plan(&p)).unwrap(), p);
        assert_eq!(
            decode_progress(&encode_progress(7, true)).unwrap(),
            (7, true)
        );
    }

    #[test]
    fn full_migration_replaces_the_store_atomically() {
        let dir = TempDir::new("full");
        old_store(&dir);
        assert_eq!(status(&dir).unwrap(), MigrateStatus::None);

        let mut mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
        assert!(matches!(
            status(&dir).unwrap(),
            MigrateStatus::InProgress { .. }
        ));
        let run = mig
            .run(ChaseOptions::default(), &Governor::unlimited())
            .unwrap();
        let state = match run {
            MigrateRun::Done(s) => s,
            MigrateRun::Suspended(r) => panic!("unlimited run suspended: {r:?}"),
        };
        assert!(state.complete);
        mig.finalize().unwrap();

        assert_eq!(status(&dir).unwrap(), MigrateStatus::None);
        let store = Store::open(&dir, opts()).unwrap();
        assert_eq!(store.mapping_text(), NEW_SCHEMA);
        let rec = store.recover().unwrap().unwrap();
        assert!(rec.state.complete);
        assert_eq!(rec.state.instance, state.instance);
        assert_eq!(rec.state.instance.facts().count(), 6);
        assert!(store.source().unwrap().facts().next().is_none());
    }

    #[test]
    fn begin_refuses_over_a_staged_migration_and_abort_clears_it() {
        let dir = TempDir::new("refuse");
        old_store(&dir);
        let _mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
        let err = Migration::begin(&dir, &plan(), &prefixed_source(), opts())
            .err()
            .unwrap();
        assert!(matches!(
            err,
            MigrateError::Store(StoreError::MigrationInProgress { .. })
        ));
        assert!(abort(&dir).unwrap());
        assert_eq!(status(&dir).unwrap(), MigrateStatus::None);
        Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
    }

    #[test]
    fn partial_roll_forward_converges() {
        let dir = TempDir::new("partial_rf");
        old_store(&dir);
        let mut mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
        let MigrateRun::Done(state) = mig
            .run(ChaseOptions::default(), &Governor::unlimited())
            .unwrap()
        else {
            panic!("unlimited run must complete");
        };
        mig.commit().unwrap();
        assert_eq!(status(&dir).unwrap(), MigrateStatus::Committed);

        // Simulate a crash after one rename of the roll-forward: the
        // live dir is a mix of old and new files.
        let next = dir.join(MIGRATE_DIR).join(NEXT_DIR);
        fs::rename(next.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(status(&dir).unwrap(), MigrateStatus::Committed);

        assert!(roll_forward(&dir, false).unwrap());
        assert_eq!(status(&dir).unwrap(), MigrateStatus::None);
        let store = Store::open(&dir, opts()).unwrap();
        assert_eq!(store.mapping_text(), NEW_SCHEMA);
        assert_eq!(
            store.recover().unwrap().unwrap().state.instance,
            state.instance
        );
        // A second roll-forward is a no-op.
        assert!(!roll_forward(&dir, false).unwrap());
    }

    #[test]
    fn abort_refuses_after_commit() {
        let dir = TempDir::new("abort_commit");
        old_store(&dir);
        let mut mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
        mig.run(ChaseOptions::default(), &Governor::unlimited())
            .unwrap();
        mig.commit().unwrap();
        assert!(matches!(abort(&dir), Err(MigrateError::Committed)));
        assert!(roll_forward(&dir, false).unwrap());
    }

    #[test]
    fn budget_stop_suspends_then_resume_completes() {
        use dex_relational::Budget;
        let dir = TempDir::new("suspend");
        old_store(&dir);
        let mut mig = Migration::begin(&dir, &plan(), &prefixed_source(), opts()).unwrap();
        // A one-round budget trips after the first committed target
        // round — a durable boundary.
        let gov = Governor::new(Budget::unlimited().with_max_rounds(1));
        let run = mig.run(ChaseOptions::default(), &gov).unwrap();
        assert!(matches!(run, MigrateRun::Suspended(_)));
        assert!(matches!(mig.commit(), Err(MigrateError::Incomplete { .. })));
        drop(mig);

        // Another "process" picks the staging back up.
        let mut mig = Migration::resume(&dir, opts()).unwrap();
        assert_eq!(mig.plan(), &plan());
        let MigrateRun::Done(state) = mig
            .run(ChaseOptions::default(), &Governor::unlimited())
            .unwrap()
        else {
            panic!("resumed run must complete");
        };
        mig.finalize().unwrap();
        let store = Store::open(&dir, opts()).unwrap();
        assert_eq!(
            store.recover().unwrap().unwrap().state.instance,
            state.instance
        );
    }
}
