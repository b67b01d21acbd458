//! End-to-end tests for `dexcli migrate`: the crash-safe live schema
//! migration front end. These exercise the full pipeline — catalog
//! diff, SMO compilation, cost admission, staged chase, commit,
//! roll-forward — through the binary, pinning the exit-code contract
//! (0 committed, 1 usage, 2 refused-before-touching-data, 3 resumable
//! budget trip).

mod common;

use common::TempDir;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

fn dexcli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dexcli"))
}

fn write_file(dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const OLD_MAPPING: &str = "source Emp(name, dept);\n\
                           target Staff(name, dept);\n\
                           Emp(n, d) -> Staff(n, d);\n";
const SOURCE_JSON: &str = r#"{"Emp": [["alice", "sales"], ["bob", "eng"]]}"#;

/// Build a completed, persisted exchange store under `dir`/store.
fn build_store(dir: &Path) -> PathBuf {
    let mapping = write_file(dir, "old.dex", OLD_MAPPING);
    let source = write_file(dir, "source.json", SOURCE_JSON);
    let store = dir.join("store");
    let out = dexcli()
        .arg("exchange")
        .arg(&mapping)
        .arg(&source)
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "store build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    store
}

#[test]
fn migrate_end_to_end_add_column_and_table() {
    let dir = TempDir::new("e2e");
    let store = build_store(&dir);
    let schema = write_file(
        &dir,
        "new.dex",
        "target Staff(name, dept, office);\ntarget Audit(name);\n",
    );

    // Dry run: prints the diff, the compiled mapping, and the
    // predicted bounds — and writes nothing.
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .arg("--dry-run")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("ADD COLUMN Staff.office"), "{stdout}");
    assert!(stdout.contains("CREATE TABLE Audit"), "{stdout}");
    assert!(stdout.contains("migration mapping:"), "{stdout}");
    assert!(stdout.contains("predicted cost bounds"), "{stdout}");
    assert!(stderr.contains("nothing written"), "{stderr}");
    assert!(
        !store.join("migrate").exists(),
        "--dry-run must not create staging"
    );

    // The real thing.
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("migration committed"), "{stderr}");
    assert!(
        !store.join("migrate").exists(),
        "staging must be gone after commit"
    );

    // The store is clean and serves the migrated instance: old tuples
    // widened with a labeled null for the new column.
    let out = dexcli().arg("fsck").arg(&store).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout).unwrap().contains("clean"));

    let out = dexcli().arg("resume").arg(&store).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("alice"), "{stdout}");
    assert!(stdout.contains("sales"), "{stdout}");
    assert!(stdout.contains("null"), "{stdout}");

    // Migrating to the schema the store already has is a no-op diff
    // and commits trivially.
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn migrate_refuses_rules_in_schema_file() {
    let dir = TempDir::new("rules");
    let store = build_store(&dir);
    let schema = write_file(
        &dir,
        "new.dex",
        "source Emp(name);\ntarget Staff(name);\nEmp(n) -> Staff(n);\n",
    );
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("contains rules"), "{stderr}");
    assert!(!store.join("migrate").exists());
}

#[test]
fn migrate_refuses_ambiguous_diff_with_exit_2() {
    let dir = TempDir::new("ambig");
    let store = build_store(&dir);
    // Staff could be a rename of either same-shape table: refused,
    // nothing staged.
    let schema = write_file(
        &dir,
        "new.dex",
        "target A(name, dept);\ntarget B(name, dept);\n",
    );
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot migrate"), "{stderr}");
    assert!(!store.join("migrate").exists());
}

#[test]
fn migrate_deny_cost_refuses_with_exit_2() {
    let dir = TempDir::new("deny");
    let store = build_store(&dir);
    let schema = write_file(&dir, "new.dex", "target Staff(name, dept, office);\n");
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .args(["--deny-cost", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("DEX502"), "{stderr}");
    assert!(!store.join("migrate").exists());
}

#[test]
fn migrate_resume_with_nothing_staged_is_a_usage_error() {
    let dir = TempDir::new("noresume");
    let store = build_store(&dir);
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nothing to resume"), "{stderr}");
}

#[test]
fn migrate_refuses_unfinished_store() {
    let dir = TempDir::new("unfinished");
    // A store whose chase tripped its budget: migrating it would drop
    // the un-derived remainder, so migrate refuses with exit 2.
    let mapping = write_file(
        &dir,
        "nt.dex",
        "source Emp(a, b);\ntarget Succ(x, y);\n\
         Emp(a, b) -> Succ(a, b);\nSucc(x, y) -> Succ(y, z);\n",
    );
    let source = write_file(&dir, "source.json", r#"{"Emp": [["a", "b"]]}"#);
    let store = dir.join("store");
    let out = dexcli()
        .arg("chase")
        .arg(&mapping)
        .arg(&source)
        .args(["--max-rounds", "2"])
        .arg("--store")
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let schema = write_file(&dir, "new.dex", "target Succ(x, y, w);\n");
    let out = dexcli()
        .arg("migrate")
        .arg(&store)
        .arg(&schema)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unfinished run"), "{stderr}");
    assert!(!store.join("migrate").exists());
}

#[test]
fn migrate_missing_args_is_usage_error() {
    let out = dexcli().arg("migrate").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let dir = TempDir::new("usage");
    let store = build_store(&dir);
    let out = dexcli().arg("migrate").arg(&store).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "schema arg required without --resume"
    );
}

/// Recursively copy a directory tree (the committed fixture must stay
/// torn, so every assertion runs against a scratch copy).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// The committed torn-migration fixture: a migration that crashed
/// after the COMMIT marker became durable but before the staged files
/// were renamed into place (see crates/store/examples/
/// gen_torn_migrate.rs). fsck must flag it, and either `fsck --repair`
/// or `migrate --resume` must finish the idempotent roll-forward.
#[test]
fn torn_migrate_fixture_is_flagged_and_rolls_forward() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/store_fixtures/torn_migrate");
    let dir = TempDir::new("torn-fixture");

    // Path 1: fsck flags the torn window, --repair rolls forward.
    let repair = dir.join("repair");
    copy_dir(&fixture, &repair);
    let out = dexcli().arg("fsck").arg(&repair).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "committed migration fails fsck");
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        report.contains("committed migration awaits roll-forward"),
        "{report}"
    );
    let out = dexcli()
        .arg("fsck")
        .arg(&repair)
        .arg("--repair")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = dexcli().arg("fsck").arg(&repair).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "repaired store passes fsck");

    // Path 2: `migrate --resume` does the same roll-forward, and the
    // store then serves the migrated schema.
    let resume = dir.join("resume");
    copy_dir(&fixture, &resume);
    let out = dexcli()
        .arg("migrate")
        .arg(&resume)
        .arg("--resume")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!resume.join("migrate").exists(), "staging cleared");
    let out = dexcli().arg("resume").arg(&resume).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["ada", "bob", "none"] {
        assert!(stdout.contains(needle), "{stdout}");
    }
}
