//! Write-ahead log of chase checkpoints.
//!
//! The unit of logging is one committed chase round: either the round's
//! delta batches (the tuples `insert_delta`/`drain_deltas` moved that
//! round) or — for rounds an egd merge rewrote, which no delta batch
//! can represent — the full instance. Records are individually
//! checksummed, so recovery replays the longest valid prefix and
//! treats everything after the first bad length or checksum as a torn
//! tail from a crashed append.
//!
//! ```text
//! file   = header | record*
//! header = "DEXWAL1\0" | version u32 | reserved u32          (16 bytes)
//! record = len u32 | crc32(payload) u32 | payload            (8 + len)
//! payload = kind u8 | round u64 | next_null u64 | body
//!   kind 1 (Delta): nbatches u32, then per batch
//!                   name | ntuples u32 | tuple*
//!   kind 2 (Full):  instance
//! ```

use crate::codec::{Decoder, Encoder};
use crate::crc::crc32;
use crate::error::StoreError;
use dex_relational::{Instance, Name, Tuple};

/// Magic bytes opening `wal.log`.
pub const WAL_MAGIC: &[u8; 8] = b"DEXWAL1\0";

/// Byte length of the WAL header.
pub const WAL_HEADER_LEN: usize = 16;

/// Cap on a single record's payload (1 GiB) — a length field above
/// this is corruption, not data, and must not drive an allocation.
const MAX_RECORD_LEN: u32 = 1 << 30;

const KIND_DELTA: u8 = 1;
const KIND_FULL: u8 = 2;

/// One committed chase round, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A round fully described by its delta batches: applying them to
    /// the previous round's instance reproduces this round's.
    Delta {
        /// Round number this record commits.
        round: u64,
        /// Null-generator position after the round.
        next_null: u64,
        /// Per-relation inserted tuples, in relation-name order.
        batches: Vec<(Name, Vec<Tuple>)>,
    },
    /// A round that rewrote the instance (egd merge): the full state.
    Full {
        /// Round number this record commits.
        round: u64,
        /// Null-generator position after the round.
        next_null: u64,
        /// The complete instance after the round.
        instance: Instance,
    },
}

impl WalRecord {
    /// The round this record commits.
    pub fn round(&self) -> u64 {
        match self {
            WalRecord::Delta { round, .. } | WalRecord::Full { round, .. } => *round,
        }
    }

    /// The null-generator position after this round.
    pub fn next_null(&self) -> u64 {
        match self {
            WalRecord::Delta { next_null, .. } | WalRecord::Full { next_null, .. } => *next_null,
        }
    }
}

/// The 16-byte WAL file header.
pub fn header_bytes() -> Vec<u8> {
    let mut h = Vec::with_capacity(WAL_HEADER_LEN);
    h.extend_from_slice(WAL_MAGIC);
    h.extend_from_slice(&crate::blob::FORMAT_VERSION.to_le_bytes());
    h.extend_from_slice(&0u32.to_le_bytes());
    h
}

/// Encode one record, framed and checksummed, ready to append.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    match rec {
        WalRecord::Delta {
            round,
            next_null,
            batches,
        } => encode_delta(*round, *next_null, batches),
        WalRecord::Full {
            round,
            next_null,
            instance,
        } => encode_full(*round, *next_null, instance),
    }
}

/// [`encode_record`] of a [`WalRecord::Delta`], from borrowed batches.
pub(crate) fn encode_delta(round: u64, next_null: u64, batches: &[(Name, Vec<Tuple>)]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(KIND_DELTA);
    e.put_u64(round);
    e.put_u64(next_null);
    e.put_u32(batches.len() as u32);
    for (name, tuples) in batches {
        e.put_str(name.as_str());
        e.put_u32(tuples.len() as u32);
        for t in tuples {
            e.put_tuple(t);
        }
    }
    frame_record(e)
}

/// [`encode_record`] of a [`WalRecord::Full`], from a borrowed instance.
pub(crate) fn encode_full(round: u64, next_null: u64, instance: &Instance) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(KIND_FULL);
    e.put_u64(round);
    e.put_u64(next_null);
    e.put_instance(instance);
    frame_record(e)
}

fn frame_record(e: Encoder) -> Vec<u8> {
    let payload = e.into_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8], file: &str) -> Result<WalRecord, StoreError> {
    let mut d = Decoder::new(payload, file);
    let kind = d.get_u8("record kind")?;
    let round = d.get_u64("record round")?;
    let next_null = d.get_u64("record next_null")?;
    let rec = match kind {
        KIND_DELTA => {
            let nbatches = d.get_u32("batch count")? as usize;
            if nbatches > payload.len() {
                return Err(StoreError::corrupt(
                    file,
                    d.offset(),
                    "implausible batch count",
                ));
            }
            let mut batches = Vec::with_capacity(nbatches);
            for _ in 0..nbatches {
                let name = Name::new(d.get_str("batch relation name")?);
                let ntuples = d.get_u32("batch tuple count")? as usize;
                if ntuples > payload.len() {
                    return Err(StoreError::corrupt(
                        file,
                        d.offset(),
                        "implausible tuple count",
                    ));
                }
                let mut tuples = Vec::with_capacity(ntuples);
                for _ in 0..ntuples {
                    tuples.push(d.get_tuple()?);
                }
                batches.push((name, tuples));
            }
            WalRecord::Delta {
                round,
                next_null,
                batches,
            }
        }
        KIND_FULL => WalRecord::Full {
            round,
            next_null,
            instance: d.get_instance()?,
        },
        k => {
            return Err(StoreError::corrupt(
                file,
                0,
                format!("unknown record kind {k}"),
            ));
        }
    };
    d.finish()?;
    Ok(rec)
}

/// Result of scanning a WAL file's bytes.
#[derive(Debug)]
pub struct WalScan {
    /// Records in the longest valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of header plus all valid records — the truncation
    /// point `fsck --repair` cuts back to.
    pub valid_bytes: u64,
    /// Total bytes in the file.
    pub total_bytes: u64,
    /// Whether bytes after the valid prefix exist (a torn append).
    pub torn: bool,
}

/// Scan WAL bytes, validating the header and every record checksum.
///
/// A bad header is a hard error (the file is not a WAL). A bad record
/// mid-file ends the scan: everything before it is the recovered
/// prefix, everything from it on is a torn tail. This is the
/// replay-to-last-valid-prefix rule — a crash mid-append must never
/// poison the committed rounds before it.
pub fn scan(bytes: &[u8], file: &str) -> Result<WalScan, StoreError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(StoreError::corrupt(
            file,
            bytes.len(),
            format!("file too short for WAL header ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::corrupt(file, 0, "bad WAL magic"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != crate::blob::FORMAT_VERSION {
        return Err(StoreError::corrupt(
            file,
            8,
            format!("unsupported WAL version {version}"),
        ));
    }
    if bytes[12..WAL_HEADER_LEN] != [0, 0, 0, 0] {
        return Err(StoreError::corrupt(
            file,
            12,
            "reserved header bytes not zero",
        ));
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut torn = false;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN || rest.len() < 8 + len as usize {
            torn = true;
            break;
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        match decode_payload(payload, file) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                // Checksum passed but the payload is malformed — treat
                // as torn rather than failing recovery outright.
                torn = true;
                break;
            }
        }
        pos += 8 + len as usize;
    }
    Ok(WalScan {
        records,
        valid_bytes: pos as u64,
        total_bytes: bytes.len() as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_relational::{tuple, RelSchema, Schema};

    fn records() -> Vec<WalRecord> {
        let schema = Schema::with_relations(vec![
            RelSchema::untyped("T", vec!["a", "b"]).expect("schema")
        ])
        .expect("schema");
        let mut inst = Instance::empty(schema);
        inst.insert("T", tuple!["x", "y"]).expect("insert");
        vec![
            WalRecord::Delta {
                round: 1,
                next_null: 3,
                batches: vec![(Name::new("T"), vec![tuple!["x", "y"]])],
            },
            WalRecord::Full {
                round: 2,
                next_null: 5,
                instance: inst,
            },
            WalRecord::Delta {
                round: 3,
                next_null: 5,
                batches: Vec::new(),
            },
        ]
    }

    fn wal_bytes(recs: &[WalRecord]) -> Vec<u8> {
        let mut bytes = header_bytes();
        for r in recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn full_file_scans_cleanly() {
        let recs = records();
        let bytes = wal_bytes(&recs);
        let scan = scan(&bytes, "wal.log").expect("scan");
        assert_eq!(scan.records, recs);
        assert!(!scan.torn);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
    }

    #[test]
    fn truncation_anywhere_yields_a_valid_prefix() {
        let recs = records();
        let bytes = wal_bytes(&recs);
        for n in WAL_HEADER_LEN..bytes.len() {
            let s = scan(&bytes[..n], "wal.log").expect("scan");
            assert!(s.records.len() <= recs.len());
            assert_eq!(s.records, recs[..s.records.len()], "prefix at {n}");
            assert_eq!(s.torn, n as u64 != s.valid_bytes, "torn flag at {n}");
        }
    }

    #[test]
    fn bit_flip_in_a_record_stops_the_scan_there() {
        let recs = records();
        let bytes = wal_bytes(&recs);
        // Flip a byte inside the second record's payload.
        let first_len = encode_record(&recs[0]).len();
        let mut bad = bytes.clone();
        let idx = WAL_HEADER_LEN + first_len + 12;
        bad[idx] ^= 0xFF;
        let s = scan(&bad, "wal.log").expect("scan");
        assert_eq!(s.records, recs[..1]);
        assert!(s.torn);
        assert_eq!(s.valid_bytes as usize, WAL_HEADER_LEN + first_len);
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        assert!(matches!(
            scan(b"junk", "wal.log"),
            Err(StoreError::Corrupt { .. })
        ));
        let mut bytes = wal_bytes(&records());
        bytes[0] ^= 1;
        assert!(matches!(
            scan(&bytes, "wal.log"),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
