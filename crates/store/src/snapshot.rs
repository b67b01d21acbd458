//! Durable snapshots of chase state.
//!
//! A snapshot is written to `snapshot.tmp`, fsynced, atomically
//! renamed over `snapshot.bin`, and the directory fsynced — in that
//! order, so a crash at any point leaves either the old snapshot or
//! the new one intact, never a mix (see DESIGN.md §9 for the
//! ordering argument). The payload carries the instance plus the
//! chase position (round, null-generator) needed to resume.

use std::fs;
use std::path::Path;

use crate::blob;
use crate::codec::{Decoder, Encoder};
use crate::error::StoreError;
use dex_chase::ResumeState;
use dex_relational::Instance;

/// Magic bytes opening `snapshot.bin`.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DEXSNAP1";

/// File name of the current snapshot within a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const TMP_FILE: &str = "snapshot.tmp";

const FLAG_COMPLETE: u8 = 1;

/// A chase position durable enough to resume from: the instance as of
/// a committed round boundary, plus the counters that pin determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseState {
    /// The target instance at this boundary.
    pub instance: Instance,
    /// Committed rounds so far (0 = after phase-1 st-tgd firing).
    pub round: u64,
    /// Null-generator position — resuming from here allocates the
    /// same null ids an uninterrupted run would.
    pub next_null: u64,
    /// Whether the chase reached fixpoint (nothing left to resume).
    pub complete: bool,
}

/// A borrowed [`ChaseState`]: what a snapshot records, read in place
/// from a running chase instead of cloned out of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StateView<'a> {
    pub(crate) instance: &'a Instance,
    pub(crate) round: u64,
    pub(crate) next_null: u64,
    pub(crate) complete: bool,
}

impl ChaseState {
    pub(crate) fn view(&self) -> StateView<'_> {
        StateView {
            instance: &self.instance,
            round: self.round,
            next_null: self.next_null,
            complete: self.complete,
        }
    }
}

/// The boundary a resumed chase continues from.
impl From<ChaseState> for ResumeState {
    fn from(state: ChaseState) -> Self {
        ResumeState {
            target: state.instance,
            next_null: state.next_null,
            rounds: state.round,
        }
    }
}

/// Encode a chase state to framed snapshot bytes.
pub fn encode(state: &ChaseState) -> Vec<u8> {
    encode_view(state.view())
}

fn encode_view(state: StateView<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(if state.complete { FLAG_COMPLETE } else { 0 });
    e.put_u64(state.round);
    e.put_u64(state.next_null);
    e.put_instance(state.instance);
    blob::frame(SNAPSHOT_MAGIC, &e.into_bytes())
}

/// Decode framed snapshot bytes.
pub fn decode(bytes: &[u8], file: &str) -> Result<ChaseState, StoreError> {
    let payload = blob::unframe(SNAPSHOT_MAGIC, bytes, file)?;
    let mut d = Decoder::new(payload, file);
    let flags = d.get_u8("snapshot flags")?;
    let round = d.get_u64("snapshot round")?;
    let next_null = d.get_u64("snapshot next_null")?;
    let instance = d.get_instance()?;
    d.finish()?;
    Ok(ChaseState {
        instance,
        round,
        next_null,
        complete: flags & FLAG_COMPLETE != 0,
    })
}

/// Durably replace the snapshot in `dir` with `state`.
///
/// Ordering: write `snapshot.tmp`, fsync it, rename over
/// `snapshot.bin`, fsync the directory. The rename is the commit
/// point; `sync` false (tests, `--no-sync`) skips the fsyncs but
/// keeps the ordering. The `store.snapshot_write` and
/// `store.snapshot_rename` fail-point sites fire here.
pub fn write(dir: &Path, state: &ChaseState, sync: bool) -> Result<(), StoreError> {
    write_view(dir, state.view(), sync)
}

/// [`write`] from a borrowed state.
pub(crate) fn write_view(dir: &Path, state: StateView<'_>, sync: bool) -> Result<(), StoreError> {
    let bytes = encode_view(state);
    let tmp = dir.join(TMP_FILE);
    let dst = dir.join(SNAPSHOT_FILE);

    crate::store::write_file_faulted(&tmp, "store.snapshot_write", &bytes, sync)?;

    if let Some(action) = dex_relational::fail::hit_io("store.snapshot_rename") {
        // Crash before the commit point: the tmp file exists but the
        // old snapshot (if any) is untouched.
        let _ = action;
        return Err(StoreError::Injected {
            site: "store.snapshot_rename".into(),
        });
    }

    fs::rename(&tmp, &dst).map_err(StoreError::io(format!(
        "rename {TMP_FILE} over {SNAPSHOT_FILE}"
    )))?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Read the snapshot in `dir`, if one exists. A present-but-corrupt
/// snapshot is an error, not `None` — recovery must not silently
/// restart from scratch when durable state existed.
pub fn read(dir: &Path) -> Result<Option<ChaseState>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(format!("read {SNAPSHOT_FILE}"))(e)),
    };
    decode(&bytes, SNAPSHOT_FILE).map(Some)
}

/// fsync a directory so a rename within it is durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(StoreError::io(format!("fsync {}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use dex_relational::{tuple, RelSchema, Schema, Value};

    fn state(complete: bool) -> ChaseState {
        let schema = Schema::with_relations(vec![
            RelSchema::untyped("T", vec!["a", "b"]).expect("schema")
        ])
        .expect("schema");
        let mut inst = Instance::empty(schema);
        inst.insert("T", tuple!["x", Value::null(4)])
            .expect("insert");
        ChaseState {
            instance: inst,
            round: 7,
            next_null: 5,
            complete,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for complete in [false, true] {
            let s = state(complete);
            let back = decode(&encode(&s), "snapshot.bin").expect("decode");
            assert_eq!(back, s);
        }
    }

    #[test]
    fn write_then_read_through_the_filesystem() {
        let dir = TempDir::new("snap_rw");
        write(&dir, &state(false), false).expect("write");
        let back = read(&dir).expect("read").expect("some");
        assert_eq!(back, state(false));
        // Overwrite is atomic-replace, not append.
        write(&dir, &state(true), true).expect("write");
        assert!(read(&dir).expect("read").expect("some").complete);
    }

    #[test]
    fn missing_snapshot_is_none_but_corrupt_is_an_error() {
        let dir = TempDir::new("snap_missing");
        assert!(read(&dir).expect("read").is_none());
        std::fs::write(dir.join(SNAPSHOT_FILE), b"garbage").expect("write");
        assert!(matches!(read(&dir), Err(StoreError::Corrupt { .. })));
    }
}
