//! # dex-store — crash-safe instance persistence
//!
//! Durable storage for chase runs: a checksummed binary codec for the
//! relational vocabulary (labeled nulls keep their stable ids), a
//! write-ahead log of committed rounds, periodic atomic snapshots, and
//! recovery that replays the WAL's longest valid prefix. Together with
//! `dex-chase`'s checkpoint sink this makes an interrupted chase —
//! budget-exhausted or crashed mid-round — resumable from disk, with
//! the resumed run producing the *same* final instance (same tuples,
//! same null allocation order) as an uninterrupted one.
//!
//! Layout of a store directory and the durability protocol are
//! documented in DESIGN.md §9; the crash-matrix test in
//! `tests/crash_matrix.rs` pins the recovery invariant under injected
//! IO faults at every record boundary.
//!
//! Every byte read back from disk is treated as untrusted input:
//! decoding returns typed [`StoreError`]s, never panics (the crate
//! denies `unwrap`/`expect` outside tests).

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod blob;
pub mod codec;
pub mod crc;
pub mod error;
pub mod fsck;
pub mod migrate;
pub mod snapshot;
pub mod store;
pub mod wal;

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod temp_dir;

pub use codec::{decode_instance, encode_instance, Decoder, Encoder};
pub use crc::crc32;
pub use error::StoreError;
pub use fsck::{fsck, repair, FsckReport, SnapshotStatus};
pub use migrate::{MigrateError, MigratePlan, MigrateRun, MigrateStatus, Migration};
pub use snapshot::ChaseState;
pub use store::{Recovered, Store, StoreMode, StoreOptions, StoreSink};
pub use wal::{WalRecord, WalScan};
