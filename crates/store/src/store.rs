//! The on-disk store: a directory holding everything needed to finish
//! an interrupted chase.
//!
//! ```text
//! <dir>/store.meta    framed: mode byte + mapping source text
//! <dir>/source.bin    framed: the source instance
//! <dir>/snapshot.bin  framed: ChaseState at the last snapshot round
//! <dir>/wal.log       header + one record per committed round since
//! ```
//!
//! Durability protocol: every committed round is appended to the WAL
//! (and fsynced) *before* the chase proceeds; every `snapshot_every`
//! rounds the full state is snapshotted (temp + fsync + rename + dir
//! fsync) and only *then* is the WAL truncated. A crash between
//! rename and truncate leaves stale records — recovery skips records
//! at or below the snapshot round. See DESIGN.md §9.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::blob;
use crate::codec::{Decoder, Encoder};
use crate::error::StoreError;
use crate::snapshot::{self, ChaseState, StateView};
use crate::wal::{self, WalRecord};
use dex_chase::{Checkpoint, CheckpointSink};
use dex_relational::fail::{self, FailAction};
use dex_relational::Instance;

/// Magic bytes opening `store.meta`.
pub const META_MAGIC: &[u8; 8] = b"DEXMETA1";
/// Magic bytes opening `source.bin`.
pub const SOURCE_MAGIC: &[u8; 8] = b"DEXSRC01";

/// File name of the store metadata.
pub const META_FILE: &str = "store.meta";
/// File name of the persisted source instance.
pub const SOURCE_FILE: &str = "source.bin";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "wal.log";

/// Which engine produced the store — decides how `dexcli resume`
/// re-runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// A chase run (`dexcli chase --store`): round-granular resume.
    Chase,
    /// A lens-pipeline exchange (`dexcli exchange --store`): the
    /// pipeline is not round-based, so resume re-runs it whole.
    Exchange,
}

impl StoreMode {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            StoreMode::Chase => 0,
            StoreMode::Exchange => 1,
        }
    }

    fn from_byte(b: u8, file: &str) -> Result<Self, StoreError> {
        match b {
            0 => Ok(StoreMode::Chase),
            1 => Ok(StoreMode::Exchange),
            b => Err(StoreError::corrupt(
                file,
                0,
                format!("unknown store mode {b}"),
            )),
        }
    }
}

/// Tunables for a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Snapshot (and truncate the WAL) every this many committed
    /// rounds. The WAL still makes *every* round durable; this only
    /// bounds recovery replay length.
    pub snapshot_every: u64,
    /// fsync after every append/snapshot. Disable only in tests and
    /// benchmarks — without it a crash can lose acknowledged rounds.
    pub sync: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            snapshot_every: 64,
            sync: true,
        }
    }
}

/// State recovered from a store after a restart.
#[derive(Debug)]
pub struct Recovered {
    /// The chase position as of the last committed round on disk.
    pub state: ChaseState,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: usize,
    /// Stale records skipped (round ≤ snapshot round — a crash hit
    /// between snapshot rename and WAL truncation).
    pub skipped_stale: usize,
    /// Whether the WAL had a torn tail beyond the valid prefix.
    pub wal_torn: bool,
}

/// A crash-safe store directory, open for reading and appending.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    mode: StoreMode,
    mapping_text: String,
    last_snapshot_round: u64,
}

impl Store {
    /// Create a fresh store in `dir` (created if absent), persisting
    /// the mapping text and source instance. Refuses to overwrite an
    /// existing store.
    pub fn create(
        dir: &Path,
        mode: StoreMode,
        mapping_text: &str,
        source: &Instance,
        opts: StoreOptions,
    ) -> Result<Self, StoreError> {
        fs::create_dir_all(dir).map_err(StoreError::io(format!("create {}", dir.display())))?;
        if dir.join(META_FILE).exists() {
            return Err(StoreError::StoreExists {
                dir: dir.to_path_buf(),
            });
        }

        let mut e = Encoder::new();
        e.put_u8(mode.to_byte());
        e.put_str(mapping_text);
        write_plain(
            &dir.join(META_FILE),
            &blob::frame(META_MAGIC, &e.into_bytes()),
            opts.sync,
        )?;

        let mut e = Encoder::new();
        e.put_instance(source);
        write_plain(
            &dir.join(SOURCE_FILE),
            &blob::frame(SOURCE_MAGIC, &e.into_bytes()),
            opts.sync,
        )?;

        write_plain(&dir.join(WAL_FILE), &wal::header_bytes(), opts.sync)?;
        if opts.sync {
            snapshot::sync_dir(dir)?;
        }

        Ok(Store {
            dir: dir.to_path_buf(),
            opts,
            mode,
            mapping_text: mapping_text.to_string(),
            last_snapshot_round: 0,
        })
    }

    /// Open an existing store in `dir`: read `store.meta`, and verify
    /// the snapshot's checksum and read its header. The snapshot's
    /// instance is not decoded; [`Store::recover`] does that.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Self, StoreError> {
        let (mode, mapping_text) = read_meta(dir)?;
        let last_snapshot_round = snapshot::read_header(dir)?.map_or(0, |h| h.round);
        Ok(Store {
            dir: dir.to_path_buf(),
            opts,
            mode,
            mapping_text,
            last_snapshot_round,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Which engine produced this store.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// The mapping source text persisted at creation.
    pub fn mapping_text(&self) -> &str {
        &self.mapping_text
    }

    /// Load the persisted source instance.
    pub fn source(&self) -> Result<Instance, StoreError> {
        read_source(&self.dir)
    }

    /// Reconstruct the last committed chase position: load the
    /// snapshot, then replay the WAL's valid prefix on top of it.
    ///
    /// Returns `None` when no snapshot exists yet (the run crashed
    /// before its first checkpoint) — the caller restarts from the
    /// persisted source. Stale records (round ≤ snapshot round) are
    /// skipped; a round gap or torn tail ends the replay at the last
    /// committed round before it.
    pub fn recover(&self) -> Result<Option<Recovered>, StoreError> {
        let Some(mut state) = snapshot::read(&self.dir)? else {
            return Ok(None);
        };
        let wal_path = self.dir.join(WAL_FILE);
        let scan = match fs::read(&wal_path) {
            Ok(bytes) => wal::scan(&bytes, WAL_FILE)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Some(Recovered {
                    state,
                    replayed_records: 0,
                    skipped_stale: 0,
                    wal_torn: false,
                }))
            }
            Err(e) => return Err(StoreError::io(format!("read {WAL_FILE}"))(e)),
        };

        let mut replayed = 0usize;
        let mut stale = 0usize;
        for rec in scan.records {
            if rec.round() <= state.round {
                stale += 1;
                continue;
            }
            if rec.round() != state.round + 1 {
                // A gap means the records beyond it belong to a
                // different lineage; stop at the last contiguous round.
                break;
            }
            match rec {
                WalRecord::Delta {
                    round,
                    next_null,
                    batches,
                } => {
                    for (name, tuples) in batches {
                        for t in tuples {
                            state.instance.insert(name.as_str(), t).map_err(|e| {
                                StoreError::corrupt(
                                    WAL_FILE,
                                    0,
                                    format!("replaying round {round} into `{name}`: {e}"),
                                )
                            })?;
                        }
                    }
                    state.round = round;
                    state.next_null = next_null;
                }
                WalRecord::Full {
                    round,
                    next_null,
                    instance,
                } => {
                    state.instance = instance;
                    state.round = round;
                    state.next_null = next_null;
                }
            }
            replayed += 1;
        }
        Ok(Some(Recovered {
            state,
            replayed_records: replayed,
            skipped_stale: stale,
            wal_torn: scan.torn,
        }))
    }

    /// Make `state` the new durable baseline before resuming: snapshot
    /// it and truncate the WAL. Idempotent — safe to re-run if the
    /// process crashes between recovery and resumption.
    pub fn prepare_resume(&mut self, state: &ChaseState) -> Result<(), StoreError> {
        snapshot::write(&self.dir, state, self.opts.sync)?;
        self.last_snapshot_round = state.round;
        self.truncate_wal()
    }

    /// Persist one chase checkpoint. Round 0 (the phase-1 output) and
    /// the final fixpoint become snapshots; every other round is a WAL
    /// append, with a periodic snapshot every
    /// [`StoreOptions::snapshot_every`] rounds. Nothing is cloned: the
    /// snapshot and the WAL record are encoded from the borrowed
    /// checkpoint, so a WAL-only round costs O(its delta).
    pub fn record_checkpoint(&mut self, cp: &Checkpoint<'_>) -> Result<(), StoreError> {
        if cp.complete || cp.round == 0 {
            return self.snapshot(cp);
        }

        let rec = match &cp.delta {
            Some(batches) => wal::encode_delta(cp.round, cp.next_null, batches),
            // An egd merge rewrote the instance in place; no delta
            // batch can express that, so log the full state.
            None => wal::encode_full(cp.round, cp.next_null, cp.target),
        };
        self.append_wal(&rec)?;

        if cp.round - self.last_snapshot_round >= self.opts.snapshot_every {
            self.snapshot(cp)?;
        }
        Ok(())
    }

    /// Snapshot the checkpoint's state, then truncate the WAL.
    fn snapshot(&mut self, cp: &Checkpoint<'_>) -> Result<(), StoreError> {
        let state = StateView {
            instance: cp.target,
            round: cp.round,
            next_null: cp.next_null,
            complete: cp.complete,
        };
        snapshot::write_view(&self.dir, state, self.opts.sync)?;
        self.last_snapshot_round = cp.round;
        self.truncate_wal()
    }

    fn append_wal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.dir.join(WAL_FILE);
        let mut f = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(StoreError::io(format!("open {WAL_FILE} for append")))?;
        if let Some(action) = fail::hit_io("store.wal_append") {
            if let FailAction::ShortWrite(n) = action {
                // Torn write: a prefix of the record reaches the disk
                // before the "crash".
                let n = (n as usize).min(bytes.len());
                let _ = f.write_all(&bytes[..n]);
                let _ = f.sync_all();
            }
            return Err(StoreError::Injected {
                site: "store.wal_append".into(),
            });
        }
        f.write_all(bytes)
            .map_err(StoreError::io(format!("append {WAL_FILE}")))?;
        if self.opts.sync {
            f.sync_all()
                .map_err(StoreError::io(format!("fsync {WAL_FILE}")))?;
        }
        Ok(())
    }

    /// Reset the WAL to an empty (header-only) file. Called only
    /// *after* a snapshot is durable, so the records being dropped are
    /// all at or below the snapshot round.
    fn truncate_wal(&mut self) -> Result<(), StoreError> {
        write_plain(
            &self.dir.join(WAL_FILE),
            &wal::header_bytes(),
            self.opts.sync,
        )
    }
}

/// Read and decode `store.meta` in `dir`: the store's mode and mapping
/// text. A missing file means `dir` holds no store.
pub(crate) fn read_meta(dir: &Path) -> Result<(StoreMode, String), StoreError> {
    let bytes = match fs::read(dir.join(META_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::NotAStore {
                dir: dir.to_path_buf(),
            })
        }
        Err(e) => return Err(StoreError::io(format!("read {META_FILE}"))(e)),
    };
    let payload = blob::unframe(META_MAGIC, &bytes, META_FILE)?;
    let mut d = Decoder::new(payload, META_FILE);
    let mode = StoreMode::from_byte(d.get_u8("store mode")?, META_FILE)?;
    let mapping_text = d.get_str("mapping text")?;
    d.finish()?;
    Ok((mode, mapping_text))
}

/// Read and decode the persisted source instance in `dir`.
pub(crate) fn read_source(dir: &Path) -> Result<Instance, StoreError> {
    let bytes =
        fs::read(dir.join(SOURCE_FILE)).map_err(StoreError::io(format!("read {SOURCE_FILE}")))?;
    let payload = blob::unframe(SOURCE_MAGIC, &bytes, SOURCE_FILE)?;
    let mut d = Decoder::new(payload, SOURCE_FILE);
    let inst = d.get_instance()?;
    d.finish()?;
    Ok(inst)
}

/// A [`CheckpointSink`] persisting every checkpoint into a [`Store`].
pub struct StoreSink<'a> {
    store: &'a mut Store,
}

impl<'a> StoreSink<'a> {
    /// Sink checkpoints into `store`.
    pub fn new(store: &'a mut Store) -> Self {
        StoreSink { store }
    }
}

impl CheckpointSink for StoreSink<'_> {
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
        self.store.record_checkpoint(&cp).map_err(|e| e.to_string())
    }
}

/// Create-and-write a whole file (no fail-point site).
pub(crate) fn write_plain(path: &Path, bytes: &[u8], sync: bool) -> Result<(), StoreError> {
    let ctx = || format!("write {}", path.display());
    let mut f = fs::File::create(path).map_err(StoreError::io(ctx()))?;
    f.write_all(bytes).map_err(StoreError::io(ctx()))?;
    if sync {
        f.sync_all().map_err(StoreError::io(ctx()))?;
    }
    Ok(())
}

/// Create-and-write a whole file through the `site` fail point:
/// an armed `ShortWrite(n)` leaves an `n`-byte prefix on disk (the
/// torn file a crash mid-write would leave) before erroring.
pub(crate) fn write_file_faulted(
    path: &Path,
    site: &str,
    bytes: &[u8],
    sync: bool,
) -> Result<(), StoreError> {
    let ctx = || format!("write {}", path.display());
    let mut f = fs::File::create(path).map_err(StoreError::io(ctx()))?;
    if let Some(action) = fail::hit_io(site) {
        if let FailAction::ShortWrite(n) = action {
            let n = (n as usize).min(bytes.len());
            let _ = f.write_all(&bytes[..n]);
            let _ = f.sync_all();
        }
        return Err(StoreError::Injected { site: site.into() });
    }
    f.write_all(bytes).map_err(StoreError::io(ctx()))?;
    if sync {
        f.sync_all().map_err(StoreError::io(ctx()))?;
    }
    Ok(())
}
