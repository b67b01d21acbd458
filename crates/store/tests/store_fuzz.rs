//! Fuzzing the on-disk formats: arbitrary, truncated, and bit-flipped
//! bytes fed to every decoder and to `open`/`recover`/`fsck` must
//! produce typed [`StoreError`]s (or valid data), never a panic and
//! never an implausible allocation. The crate itself denies
//! `unwrap`/`expect`; these properties pin the behavior down from the
//! outside.

#[path = "../../../tests/common/mod.rs"]
mod temp_dir;

use std::path::Path;
use temp_dir::TempDir;

use dex_chase::{chase, RunContext, Start};
use dex_logic::parse_mapping;
use dex_relational::{tuple, Governor, Instance};
use dex_store::{codec, fsck, wal, Store, StoreMode, StoreOptions, StoreSink};
use proptest::prelude::*;

/// Build one real store on disk and return its directory.
fn build_store(tag: u64) -> TempDir {
    let dir = TempDir::new(&format!("fuzz_{tag}"));
    let text = r#"
        source R(a);
        target S(a, b);
        target T(b);
        R(x) -> S(x, y);
        S(x, y) -> T(y);
    "#;
    let m = parse_mapping(text).unwrap();
    let src = Instance::with_facts(
        m.source().clone(),
        vec![("R", vec![tuple!["u"], tuple!["v"]])],
    )
    .unwrap();
    let mut store = Store::create(
        &dir,
        StoreMode::Chase,
        text,
        &src,
        StoreOptions {
            snapshot_every: 64, // keep rounds in the WAL, not snapshots
            sync: false,
        },
    )
    .unwrap();
    let mut sink = StoreSink::new(&mut store);
    chase(
        &m,
        Start::Fresh(&src),
        RunContext {
            sink: Some(&mut sink),
            ..RunContext::new(&Governor::unlimited())
        },
    )
    .unwrap();
    dir
}

/// Every file a store contains, as (name, bytes).
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        out.push((
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        ));
    }
    out.sort();
    out
}

/// A flipped payload bit in `snapshot.bin` is the snapshot's problem
/// alone: `store.meta` and `source.bin` are judged by their own reads.
#[test]
fn a_corrupt_snapshot_blames_only_the_snapshot() {
    let dir = build_store(1000);
    let path = dir.join(dex_store::snapshot::SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    assert!(Store::open(&dir, StoreOptions::default()).is_err());
    let report = fsck::fsck(&dir).unwrap();
    assert!(report.meta_ok && report.source_ok, "{report}");
    assert_eq!(report.snapshot, fsck::SnapshotStatus::Corrupt);
    assert_eq!(report.problems.len(), 1, "{report}");
    let text = report.to_string();
    let problems: Vec<&str> = text.lines().filter(|l| l.starts_with("problem:")).collect();
    assert_eq!(
        problems,
        [
            "problem: snapshot.bin does not verify: corrupt store file `snapshot.bin` \
          at byte 16: payload checksum mismatch"
        ],
        "{text}"
    );
    assert!(text.starts_with("store.meta: ok\nsource.bin: ok\nsnapshot.bin: CORRUPT\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes through the instance decoder: typed error or a
    /// valid instance, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_codec(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode_instance(&bytes, "fuzz");
    }

    /// Arbitrary bytes through the WAL scanner.
    #[test]
    fn arbitrary_bytes_never_panic_the_wal_scan(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wal::scan(&bytes, "fuzz");
    }

    /// A real store with one file bit-flipped: `open`, `recover`, and
    /// `fsck` return (typed results), never panic — and a flip that
    /// lands in file content is *detected* somewhere: fsck reports a
    /// problem, recovery errors, or the WAL scan shortens.
    #[test]
    fn bit_flipped_store_files_are_detected_or_harmless(
        seed in 0u64..1 << 32,
    ) {
        let dir = build_store(seed % 7);
        let files = store_files(&dir);
        // Pick a file and a bit deterministically from the seed.
        let (name, bytes) = &files[(seed as usize) % files.len()];
        prop_assert!(!bytes.is_empty(), "store files always carry a header");
        let bit = (seed as usize / files.len()) % (bytes.len() * 8);
        let mut mutated = bytes.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(dir.join(name), &mutated).unwrap();

        // None of these may panic.
        let opened = Store::open(&dir, StoreOptions::default());
        let recovered = opened.as_ref().ok().map(|s| s.recover());
        let report = fsck::fsck(&dir);

        // The flip must be *noticed* unless it landed in the WAL's
        // torn-tail region semantics (then the scan shortens, which
        // fsck reports as a tear) — every byte is under a checksum.
        let noticed = opened.is_err()
            || matches!(&recovered, Some(Err(_)))
            || report.is_err()
            || matches!(&report, Ok(r) if !r.is_clean() || r.wal_torn || r.stale_records > 0);
        prop_assert!(noticed, "flip at bit {bit} of {name} went unnoticed");
    }

    /// Truncating any store file at any point never panics recovery.
    #[test]
    fn truncated_store_files_never_panic(seed in 0u64..1 << 32) {
        let dir = build_store(7 + seed % 7);
        let files = store_files(&dir);
        let (name, bytes) = &files[(seed as usize) % files.len()];
        let cut = (seed as usize / files.len()) % (bytes.len() + 1);
        std::fs::write(dir.join(name), &bytes[..cut]).unwrap();

        if let Ok(s) = Store::open(&dir, StoreOptions::default()) {
            let _ = s.recover();
            let _ = s.source();
        }
        if fsck::fsck(&dir).is_ok() {
            // Repair must also hold up against truncated inputs.
            let _ = fsck::repair(&dir);
            let _ = fsck::fsck(&dir);
        }
    }

    /// Garbage files posing as a store: `open` yields `NotAStore` or
    /// `Corrupt`, `fsck` never panics.
    #[test]
    fn garbage_directories_yield_typed_errors(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let dir = TempDir::new("fuzz_99");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.meta"), &bytes).unwrap();
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        match Store::open(&dir, StoreOptions::default()) {
            Ok(s) => {
                let _ = s.recover();
            }
            Err(e) => {
                // Typed, displayable error.
                let _ = e.to_string();
            }
        }
        let _ = fsck::fsck(&dir);
        let _ = fsck::repair(&dir);
    }
}
