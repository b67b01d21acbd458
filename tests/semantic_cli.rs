//! End-to-end contract for the semantic subcommands: `dexcli eq`,
//! `dexcli optimize`, `dexcli lint --fix`, and `dexcli compose
//! --check` — exit codes, witnesses, and the fix-until-fixpoint loop,
//! driven through the real binary like a user would.

mod common;

use common::TempDir;
use std::path::PathBuf;
use std::process::{Command, Output};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn dexcli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dexcli"))
        .current_dir(root())
        .args(args)
        .output()
        .unwrap()
}

fn fixture(name: &str) -> String {
    format!("examples/mappings/{name}.dex")
}

#[test]
fn eq_equivalent_pair_exits_zero() {
    let out = dexcli(&["eq", &fixture("eq_a"), &fixture("eq_b")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("equivalent"), "{err}");
}

#[test]
fn eq_mapping_equals_itself() {
    for name in ["eq_a", "eq_b", "eq_c", "employees", "university"] {
        let out = dexcli(&["eq", &fixture(name), &fixture(name)]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
    }
}

#[test]
fn eq_inequivalent_pair_exits_four_with_witness() {
    let out = dexcli(&["eq", &fixture("eq_a"), &fixture("eq_c")]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The witness is machine-checkable JSON naming the violated
    // dependency and carrying both instances.
    assert!(stdout.contains("\"dependency\""), "{stdout}");
    assert!(stdout.contains("\"source\""), "{stdout}");
    assert!(stdout.contains("\"target\""), "{stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("witness re-verified"), "{err}");
    assert!(err.contains("mappings differ"), "{err}");
}

#[test]
fn eq_json_format_reports_both_directions() {
    let out = dexcli(&["eq", &fixture("eq_a"), &fixture("eq_c"), "--format", "json"]);
    assert_eq!(out.status.code(), Some(4));
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v.get("equivalent").and_then(|b| b.as_bool()), Some(false));
    for dir in ["forward", "backward"] {
        let d = v.get(dir).unwrap();
        assert_eq!(
            d.get("verdict").and_then(|s| s.as_str()),
            Some("fails"),
            "{dir}"
        );
        assert!(d.get("witness").is_some(), "{dir} carries its witness");
    }
}

#[test]
fn eq_non_terminating_input_is_undecided_exit_two() {
    let out = dexcli(&[
        "eq",
        &fixture("bad_non_terminating"),
        &fixture("bad_non_terminating"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("undecided"), "{err}");
}

#[test]
fn optimize_emits_a_smaller_equivalent_mapping() {
    let out = dexcli(&["optimize", &fixture("redundant_subsumed")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The deleted rule's conclusion pair never reappears.
    assert!(!stdout.contains("Works(n, d) & Managed(n, m)"), "{stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("verified"), "{err}");
    // The optimizer's stdout is itself a valid mapping, equivalent to
    // the original — check through `eq` like a skeptical user would.
    let dir = TempDir::new("optimize_roundtrip");
    let tmp = dir.write("optimized.dex", stdout.as_bytes());
    let eq = dexcli(&["eq", &fixture("redundant_subsumed"), tmp.to_str().unwrap()]);
    assert_eq!(eq.status.code(), Some(0), "{eq:?}");
}

#[test]
fn optimize_check_reports_without_emitting() {
    let out = dexcli(&["optimize", &fixture("redundant_subsumed"), "--check"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty(), "--check prints no mapping");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("3 verified rewrites"), "{err}");
}

#[test]
fn optimize_refuses_non_terminating_mappings() {
    let out = dexcli(&["optimize", &fixture("bad_non_terminating")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("refused"), "{err}");
    assert!(out.stdout.is_empty(), "no unproven mapping on stdout");
}

#[test]
fn optimize_on_minimal_mapping_is_identity() {
    let out = dexcli(&["optimize", &fixture("employees")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("already minimal"), "{err}");
}

#[test]
fn lint_fix_applies_rewrites_and_reaches_a_fixpoint() {
    let dir = TempDir::new("lint_fix");
    let path = dir.write(
        "subsumed.dex",
        std::fs::read_to_string(root().join(fixture("redundant_subsumed"))).unwrap(),
    );
    let p = path.to_str().unwrap();

    let first = dexcli(&["lint", "--fix", p]);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let fixed = std::fs::read_to_string(&path).unwrap();
    assert_ne!(
        fixed,
        std::fs::read_to_string(root().join(fixture("redundant_subsumed"))).unwrap(),
        "--fix must change the file"
    );

    // The fixed file still means the same thing.
    let eq = dexcli(&["eq", &fixture("redundant_subsumed"), p]);
    assert_eq!(eq.status.code(), Some(0), "fix preserved semantics: {eq:?}");

    // Idempotence: a second --fix run is a byte-for-byte no-op.
    let second = dexcli(&["lint", "--fix", p]);
    assert_eq!(second.status.code(), Some(0));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), fixed);
    let err = String::from_utf8_lossy(&second.stderr);
    assert!(
        !err.contains("applied"),
        "second run applies nothing: {err}"
    );
}

#[test]
fn compose_check_passes_on_a_faithful_composition() {
    let dir = TempDir::new("compose_check");
    let c1 = dir.write(
        "c1.dex",
        "source Emp(name, dept);\ntarget Mid(name, dept);\nEmp(x, d) -> Mid(x, d);\n",
    );
    let c2 = dir.write(
        "c2.dex",
        "source Mid(name, dept);\ntarget Out(name);\nMid(x, d) -> Out(x);\n",
    );
    let out = dexcli(&[
        "compose",
        c1.to_str().unwrap(),
        c2.to_str().unwrap(),
        "--check",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("agrees with the two-step chase"), "{err}");
}

#[test]
fn compose_check_skips_second_order_compositions() {
    let dir = TempDir::new("compose_so");
    let c1 = dir.write(
        "so1.dex",
        "source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let c2 = dir.write(
        "so2.dex",
        "source Manager(emp, mgr);\ntarget SelfMngr(emp);\nManager(x, x) -> SelfMngr(x);\n",
    );
    let out = dexcli(&[
        "compose",
        c1.to_str().unwrap(),
        c2.to_str().unwrap(),
        "--check",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "refusal to certify is not failure"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("outside the decidable fragment"), "{err}");
}
