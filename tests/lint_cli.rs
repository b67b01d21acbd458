//! End-to-end tests of `dexcli lint`: exit codes, `--deny warnings`
//! promotion, and the machine-readable `--format json` output.

use std::path::PathBuf;
use std::process::Command;

fn dexcli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dexcli"))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/mappings")
        .join(name)
}

#[test]
fn non_terminating_fixture_fails_with_dex001() {
    let out = dexcli()
        .arg("lint")
        .arg(fixture("bad_non_terminating.dex"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[DEX001]"), "{text}");
    assert!(text.contains("Succ.1 —∃→ Succ.1"), "{text}");
    // The caret block points at the offending target tgd.
    assert!(text.contains("bad_non_terminating.dex:7:1"), "{text}");
    assert!(text.contains("Succ(x, y) -> Succ(y, z);"), "{text}");
}

#[test]
fn clean_fixtures_pass_even_under_deny_warnings() {
    for name in [
        "employees.dex",
        "university.dex",
        "evolution.dex",
        "approx_ids.dex",
    ] {
        let out = dexcli()
            .arg("lint")
            .arg("--deny")
            .arg("warnings")
            .arg(fixture(name))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn deny_warnings_promotes_hygiene_warnings_to_failure() {
    let plain = dexcli()
        .arg("lint")
        .arg(fixture("bad_unused.dex"))
        .output()
        .unwrap();
    assert!(plain.status.success(), "warnings alone must not fail");

    let denied = dexcli()
        .arg("lint")
        .arg("--deny")
        .arg("warnings")
        .arg(fixture("bad_unused.dex"))
        .output()
        .unwrap();
    assert!(!denied.status.success());
    let text = String::from_utf8(denied.stdout).unwrap();
    assert!(text.contains("error[DEX101]"), "{text}");
    assert!(text.contains("error[DEX102]"), "{text}");
}

#[test]
fn parse_error_reports_dex000_and_fails() {
    let out = dexcli()
        .arg("lint")
        .arg(fixture("bad_syntax.dex"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[DEX000]"), "{text}");
    assert!(text.contains("bad_syntax.dex:5:1"), "{text}");
}

#[test]
fn json_output_round_trips_through_serde() {
    let out = dexcli()
        .arg("lint")
        .arg("--format")
        .arg("json")
        .arg(fixture("bad_non_terminating.dex"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    let files = parsed.as_array().unwrap();
    assert_eq!(files.len(), 1);
    let diags = files[0]["diagnostics"].as_array().unwrap();
    assert!(!diags.is_empty());

    // Every diagnostic round-trips through the typed model: CLI JSON →
    // Diagnostic → JSON → Diagnostic, landing on an equal value.
    for d in diags {
        let typed: dex::analyze::Diagnostic = serde_json::from_value(d.clone()).unwrap();
        let json = serde_json::to_string(&typed).unwrap();
        let back: dex::analyze::Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(typed, back);
    }
    assert!(diags.iter().any(|d| {
        d["code"].as_str() == Some("DEX001") && d["severity"].as_str() == Some("Error")
    }));
}

#[test]
fn multiple_files_lint_in_one_invocation() {
    let out = dexcli()
        .arg("lint")
        .arg(fixture("employees.dex"))
        .arg(fixture("bad_clash.dex"))
        .output()
        .unwrap();
    // One clean file does not mask the other's error.
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[DEX104]"), "{text}");
}

#[test]
fn non_terminating_fixture_also_warns_dex501() {
    let out = dexcli()
        .arg("lint")
        .arg(fixture("bad_non_terminating.dex"))
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("warning[DEX501]"), "{text}");
    assert!(text.contains("no budget can be synthesized"), "{text}");
}

#[test]
fn deny_cost_raises_dex502_and_cards_parameterize_it() {
    // employees.dex joins Emp and Dept: 10^6 firings at the default
    // uniform cardinality of 1000 — over a threshold of 100.
    let over = dexcli()
        .arg("lint")
        .args(["--deny-cost", "100"])
        .arg(fixture("employees.dex"))
        .output()
        .unwrap();
    assert_eq!(over.status.code(), Some(2));
    let text = String::from_utf8(over.stdout).unwrap();
    assert!(text.contains("error[DEX502]"), "{text}");

    // With honest small cardinalities the same threshold admits it.
    let under = dexcli()
        .arg("lint")
        .args(["--deny-cost", "100", "--cards", "Emp=5,Dept=2,default=0"])
        .arg(fixture("employees.dex"))
        .output()
        .unwrap();
    assert_eq!(
        under.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&under.stdout)
    );
}

#[test]
fn bad_cards_spec_is_a_usage_error() {
    let out = dexcli()
        .arg("lint")
        .args(["--cards", "Emp=banana"])
        .arg(fixture("employees.dex"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--cards"), "{err}");
}
