//! Offline store verification (`dexcli fsck`).
//!
//! `fsck` walks every file in a store directory and verifies its
//! framing, checksums, and structure without mutating anything.
//! `repair` applies the one safe repair: truncating the WAL back to
//! its last valid record (exactly what recovery does implicitly). A
//! corrupt snapshot or meta file is *reported*, never repaired — there
//! is no prefix of a snapshot worth keeping.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::error::StoreError;
use crate::migrate::{self, MigrateStatus};
use crate::snapshot::{self, SNAPSHOT_FILE};
use crate::store::{read_meta, read_source, META_FILE, SOURCE_FILE, WAL_FILE};
use crate::wal;

/// What fsck found in `snapshot.bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// No snapshot yet (a store that never checkpointed).
    Missing,
    /// A valid snapshot at this round.
    Ok {
        /// The snapshot's committed round.
        round: u64,
        /// Whether it marks a finished chase.
        complete: bool,
    },
    /// The snapshot file exists but does not verify.
    Corrupt,
}

/// Result of verifying a store directory.
#[derive(Debug)]
pub struct FsckReport {
    /// `store.meta` verified.
    pub meta_ok: bool,
    /// `source.bin` verified.
    pub source_ok: bool,
    /// State of `snapshot.bin`.
    pub snapshot: SnapshotStatus,
    /// Valid records in the WAL prefix.
    pub wal_records: usize,
    /// Byte length of the valid WAL prefix (header included).
    pub wal_valid_bytes: u64,
    /// Total bytes in `wal.log`.
    pub wal_total_bytes: u64,
    /// Whether bytes past the valid prefix exist (torn tail).
    pub wal_torn: bool,
    /// Valid records at or below the snapshot round (left behind by a
    /// crash between snapshot rename and WAL truncation; harmless).
    pub stale_records: usize,
    /// Where the store stands with respect to live migration (a
    /// `migrate/` staging directory beside the live files).
    pub migration: MigrateStatus,
    /// Informational notes that do not make the store unclean (e.g. a
    /// resumable migration in progress).
    pub notes: Vec<String>,
    /// Human-readable problems, empty iff the store is clean.
    pub problems: Vec<String>,
}

impl FsckReport {
    /// No problems found.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{META_FILE}: {}",
            if self.meta_ok { "ok" } else { "CORRUPT" }
        )?;
        writeln!(
            f,
            "{SOURCE_FILE}: {}",
            if self.source_ok { "ok" } else { "CORRUPT" }
        )?;
        match self.snapshot {
            SnapshotStatus::Missing => writeln!(f, "{SNAPSHOT_FILE}: none")?,
            SnapshotStatus::Ok { round, complete } => writeln!(
                f,
                "{SNAPSHOT_FILE}: ok (round {round}{})",
                if complete { ", complete" } else { "" }
            )?,
            SnapshotStatus::Corrupt => writeln!(f, "{SNAPSHOT_FILE}: CORRUPT")?,
        }
        writeln!(
            f,
            "{WAL_FILE}: {} record(s), {}/{} bytes valid{}{}",
            self.wal_records,
            self.wal_valid_bytes,
            self.wal_total_bytes,
            if self.wal_torn { ", TORN TAIL" } else { "" },
            if self.stale_records > 0 {
                format!(", {} stale", self.stale_records)
            } else {
                String::new()
            }
        )?;
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        for p in &self.problems {
            writeln!(f, "problem: {p}")?;
        }
        write!(
            f,
            "{}",
            if self.is_clean() {
                "clean"
            } else {
                "NOT CLEAN"
            }
        )
    }
}

/// Verify every file in the store at `dir`. Read-only. Each file is
/// read and verified once, and judged by its own read alone.
///
/// Errors only when `dir` is not a store at all; everything else is
/// reported through [`FsckReport::problems`].
pub fn fsck(dir: &Path) -> Result<FsckReport, StoreError> {
    let meta_ok = match read_meta(dir) {
        Ok(_) => true,
        Err(e @ StoreError::NotAStore { .. }) => return Err(e),
        Err(_) => false,
    };
    let mut problems = Vec::new();
    if !meta_ok {
        problems.push(format!("{META_FILE} does not verify"));
    }

    let source_ok = read_source(dir).is_ok();
    if !source_ok {
        problems.push(format!("{SOURCE_FILE} missing or does not verify"));
    }

    let snapshot_status = match snapshot::read(dir) {
        Ok(None) => SnapshotStatus::Missing,
        Ok(Some(s)) => SnapshotStatus::Ok {
            round: s.round,
            complete: s.complete,
        },
        Err(e) => {
            problems.push(format!("{SNAPSHOT_FILE} does not verify: {e}"));
            SnapshotStatus::Corrupt
        }
    };
    let snapshot_round = match snapshot_status {
        SnapshotStatus::Ok { round, .. } => round,
        _ => 0,
    };

    let (wal_records, wal_valid, wal_total, wal_torn, stale) = match fs::read(dir.join(WAL_FILE)) {
        Ok(bytes) => match wal::scan(&bytes, WAL_FILE) {
            Ok(scan) => {
                let stale = scan
                    .records
                    .iter()
                    .filter(|r| r.round() <= snapshot_round && snapshot_round > 0)
                    .count();
                (
                    scan.records.len(),
                    scan.valid_bytes,
                    scan.total_bytes,
                    scan.torn,
                    stale,
                )
            }
            Err(e) => {
                problems.push(format!("{WAL_FILE} header does not verify: {e}"));
                (0, 0, bytes.len() as u64, true, 0)
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            problems.push(format!("{WAL_FILE} missing"));
            (0, 0, 0, false, 0)
        }
        Err(e) => return Err(StoreError::io(format!("read {WAL_FILE}"))(e)),
    };
    if wal_torn {
        problems.push(format!(
            "{WAL_FILE} has a torn tail: {} of {} bytes valid (repairable)",
            wal_valid, wal_total
        ));
    }

    let mut notes = Vec::new();
    let migration = migrate::status(dir)?;
    match &migration {
        MigrateStatus::None => {}
        MigrateStatus::InProgress {
            round,
            chase_complete,
        } => {
            // Not corruption: the live files above are untouched and
            // authoritative until a commit marker verifies.
            notes.push(format!(
                "resumable migration in progress{}{} — the live store is authoritative; finish with `dexcli migrate --resume`",
                match round {
                    Some(r) => format!(" (round {r}"),
                    None => " (no round committed yet".to_string(),
                },
                if *chase_complete {
                    ", chase complete)"
                } else {
                    ")"
                }
            ));
        }
        MigrateStatus::Committed => {
            problems.push(
                "a committed migration awaits roll-forward (the live files may mix old and new); \
                 finish with `dexcli fsck --repair` or `dexcli migrate --resume`"
                    .to_string(),
            );
        }
    }

    Ok(FsckReport {
        meta_ok,
        source_ok,
        snapshot: snapshot_status,
        wal_records,
        wal_valid_bytes: wal_valid,
        wal_total_bytes: wal_total,
        wal_torn,
        stale_records: stale,
        migration,
        notes,
        problems,
    })
}

/// Apply the safe repairs at `dir`: truncate a torn WAL back to its
/// valid prefix, or rewrite a missing/unverifiable WAL as empty.
/// Returns a description of each action taken (empty = nothing to do).
/// Corrupt snapshots and meta files are never touched.
pub fn repair(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut actions = Vec::new();
    // A committed migration's roll-forward is idempotent and the only
    // way forward for that store: finishing it *is* the safe repair.
    // An uncommitted staging directory is left strictly alone — it is
    // resumable state, not damage.
    if migrate::roll_forward(dir, true)? {
        actions.push("completed the committed migration's roll-forward".to_string());
    }
    let wal_path = dir.join(WAL_FILE);
    match fs::read(&wal_path) {
        Ok(bytes) => match wal::scan(&bytes, WAL_FILE) {
            Ok(scan) if scan.torn => {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(StoreError::io(format!("open {WAL_FILE} for repair")))?;
                f.set_len(scan.valid_bytes)
                    .map_err(StoreError::io(format!("truncate {WAL_FILE}")))?;
                f.sync_all()
                    .map_err(StoreError::io(format!("fsync {WAL_FILE}")))?;
                actions.push(format!(
                    "truncated {WAL_FILE} from {} to {} bytes ({} record(s) kept)",
                    scan.total_bytes,
                    scan.valid_bytes,
                    scan.records.len()
                ));
            }
            Ok(_) => {}
            Err(_) => {
                // Header unverifiable: no valid prefix exists.
                fs::write(&wal_path, wal::header_bytes())
                    .map_err(StoreError::io(format!("rewrite {WAL_FILE}")))?;
                actions.push(format!("rewrote {WAL_FILE} with an empty header"));
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            fs::write(&wal_path, wal::header_bytes())
                .map_err(StoreError::io(format!("recreate {WAL_FILE}")))?;
            actions.push(format!("recreated missing {WAL_FILE}"));
        }
        Err(e) => return Err(StoreError::io(format!("read {WAL_FILE}"))(e)),
    }
    Ok(actions)
}
