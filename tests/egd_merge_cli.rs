//! Egd merges through the `dexcli` binary, pinned byte for byte.
//!
//! The goldens under `tests/goldens/chase/` were recorded from the
//! binary that still rebuilt the whole instance for every merged null;
//! in-place merges must reproduce them exactly, including which null
//! survives each merge. A store-backed run interrupted around a
//! merging round must resume to the same bytes.

mod common;

use common::TempDir;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Every employee gets an invented manager and an invented office;
/// the target tgd copies the office into `Manager`, and the key then
/// merges the two nulls (one null–null merge per employee).
const NULL_MERGE: &str = "source Emp(name);
target Manager(emp, mgr);
target Office(emp, room);
key Manager(emp);
Emp(x) -> Manager(x, m);
Emp(x) -> Office(x, r);
Office(x, r) -> Manager(x, r);
";

/// The same merges one round later, behind a `Badge` hop: round 1
/// fires `Badge`, round 2 fires `Manager` and merges.
const MERGE_ROUNDS: &str = "source Emp(name);
target Manager(emp, mgr);
target Office(emp, room);
target Badge(emp, room);
key Manager(emp);
Emp(x) -> Manager(x, m);
Emp(x) -> Office(x, r);
Office(x, r) -> Badge(x, r);
Badge(x, r) -> Manager(x, r);
";

const SOURCE: &str = r#"{"Emp": [["Dana"], ["Alice"], ["Carol"], ["Bob"]]}"#;

fn dexcli(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dexcli"))
        .args(args)
        .output()
        .unwrap()
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/chase")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn null_null_merges_match_the_recorded_output() {
    let dir = TempDir::new("egd_null_merge");
    let src = dir.write("src.json", SOURCE);
    for (mapping, name) in [
        (NULL_MERGE, "egd_null_merge.json"),
        (MERGE_ROUNDS, "egd_merge_rounds.json"),
    ] {
        let m = dir.write("m.dex", mapping);
        let out = dexcli(&["chase".as_ref(), m.as_os_str(), src.as_os_str()]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden(name),
            "{name}"
        );
    }
}

#[test]
fn a_merging_round_clears_the_delta_log() {
    // Round 2 merges; the merge leaves no delta behind, so the final
    // (fixpoint) round sees an empty delta and re-matches in full.
    let dir = TempDir::new("egd_merge_stats");
    let src = dir.write("src.json", SOURCE);
    let m = dir.write("m.dex", MERGE_ROUNDS);
    let out = dexcli(&[
        "chase".as_ref(),
        m.as_os_str(),
        src.as_os_str(),
        "--stats".as_ref(),
        "--format".as_ref(),
        "json".as_ref(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stats: serde_json::Value =
        serde_json::from_str(String::from_utf8(out.stderr).unwrap().trim()).unwrap();
    let stats = &stats["stats"];
    assert_eq!(stats["delta_sizes"].to_string(), "[8,4,0]", "{stats}");
    assert_eq!(stats["firings_per_round"].to_string(), "[4,4,0]", "{stats}");
    assert_eq!(stats["rounds"].as_u64(), Some(2), "{stats}");
}

#[test]
fn resume_after_a_merging_round_equals_the_uninterrupted_chase() {
    let dir = TempDir::new("egd_merge_resume");
    let src = dir.write("src.json", SOURCE);
    let m = dir.write("m.dex", MERGE_ROUNDS);
    let want = golden("egd_merge_rounds.json");
    // Cap 0 stops before the merging round, cap 1 right after it,
    // cap 2 lets the run finish.
    for (cap, exit) in [("0", 3), ("1", 3), ("2", 0)] {
        let store = dir.path().join(format!("store-{cap}"));
        let first = dexcli(&[
            "chase".as_ref(),
            m.as_os_str(),
            src.as_os_str(),
            "--store".as_ref(),
            store.as_os_str(),
            "--no-sync".as_ref(),
            "--max-rounds".as_ref(),
            cap.as_ref(),
        ]);
        assert_eq!(first.status.code(), Some(exit), "cap {cap}: {first:?}");
        let resumed = dexcli(&["resume".as_ref(), store.as_os_str()]);
        assert_eq!(resumed.status.code(), Some(0), "cap {cap}: {resumed:?}");
        assert_eq!(
            String::from_utf8(resumed.stdout).unwrap(),
            want,
            "cap {cap}"
        );
    }
}
