//! End-to-end tests of the `dexcli` binary.

mod common;

use common::TempDir;
use std::process::Command;

fn dexcli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dexcli"))
}

fn emp_mapping_file(dir: &TempDir) -> std::path::PathBuf {
    dir.write(
        "emp.dex",
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )
}

#[test]
fn help_prints_usage() {
    let out = dexcli().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("exchange"));
    assert!(text.contains("mapping files"));
}

#[test]
fn unknown_command_fails() {
    let out = dexcli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn plan_shows_holes() {
    let dir = TempDir::new("plan_shows_holes");
    let m = emp_mapping_file(&dir);
    let out = dexcli().arg("plan").arg(&m).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("== mapping plan =="), "{text}");
    assert!(text.contains("Manager.mgr"), "{text}");
}

#[test]
fn chase_and_exchange_agree_on_shape() {
    let dir = TempDir::new("chase_and_exchange_agree_on_shape");
    let m = emp_mapping_file(&dir);
    let src = dir.write("src.json", r#"{"Emp": [["Alice"], ["Bob"]]}"#);
    for cmd in ["chase", "exchange"] {
        let out = dexcli().arg(cmd).arg(&m).arg(&src).output().unwrap();
        assert!(out.status.success(), "{cmd} failed");
        let text = String::from_utf8(out.stdout).unwrap();
        let json: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = json["Manager"].as_array().unwrap();
        assert_eq!(rows.len(), 2, "{cmd}: {text}");
        for row in rows {
            assert!(row[1].get("null").is_some(), "{cmd}: manager is a null");
        }
    }
}

#[test]
fn backward_propagates_edit() {
    let dir = TempDir::new("backward_propagates_edit");
    let m = emp_mapping_file(&dir);
    let src = dir.write("src2.json", r#"{"Emp": [["Alice"]]}"#);
    let tgt = dir.write(
        "tgt2.json",
        r#"{"Manager": [["Alice", {"null": 0}], ["Carol", "Ted"]]}"#,
    );
    let out = dexcli()
        .arg("backward")
        .arg(&m)
        .arg(&tgt)
        .arg(&src)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    let names: Vec<&str> = json["Emp"]
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r[0].as_str().unwrap())
        .collect();
    assert_eq!(names, ["Alice", "Carol"]);
}

#[test]
fn compose_prints_second_order_result() {
    let dir = TempDir::new("compose_prints_second_order_result");
    let m1 = emp_mapping_file(&dir);
    let m2 = dir.write(
        "m2.dex",
        r#"
        source Manager(emp, mgr);
        target Boss(emp, mgr);
        target SelfMngr(emp);
        Manager(x, y) -> Boss(x, y);
        Manager(x, x) -> SelfMngr(x);
        "#,
    );
    let out = dexcli().arg("compose").arg(&m1).arg(&m2).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("∃f"), "{text}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("second-order"), "{err}");
}

#[test]
fn recover_prints_disjunction() {
    let dir = TempDir::new("recover_prints_disjunction");
    let m = dir.write(
        "parents.dex",
        r#"
        source Father(p, c);
        source Mother(p, c);
        target Parent(p, c);
        Father(x, y) -> Parent(x, y);
        Mother(x, y) -> Parent(x, y);
        "#,
    );
    let out = dexcli().arg("recover").arg(&m).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Father(v0, v1) ∨ Mother(v0, v1)"), "{text}");
}

#[test]
fn query_certain_answers() {
    let dir = TempDir::new("query_certain_answers");
    let m = emp_mapping_file(&dir);
    let src = dir.write("srcq.json", r#"{"Emp": [["Alice"], ["Bob"]]}"#);
    let out = dexcli()
        .arg("query")
        .arg(&m)
        .arg(&src)
        .arg("q(e) :- Manager(e, m)")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let names: Vec<&str> = json
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r[0].as_str().unwrap())
        .collect();
    assert_eq!(names, ["Alice", "Bob"]);
    // Managers are nulls: no certain (e, m) pairs.
    let out2 = dexcli()
        .arg("query")
        .arg(&m)
        .arg(&src)
        .arg("q(e, m) :- Manager(e, m)")
        .output()
        .unwrap();
    assert!(out2.status.success());
    let json2: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out2.stdout).unwrap()).unwrap();
    assert!(json2.as_array().unwrap().is_empty());
}

#[test]
fn deny_cost_refuses_expensive_and_non_terminating_runs() {
    let dir = TempDir::new("deny_cost_refuses_expensive_and_non_terminating_runs");
    // A mapping under threshold runs; over threshold is refused with
    // exit 2 (like lint) before any chase work happens.
    let m = emp_mapping_file(&dir);
    let src = dir.write("cost_src.json", r#"{"Emp": [["Alice"], ["Bob"]]}"#);
    for cmd in ["chase", "exchange"] {
        let ok = dexcli()
            .args([cmd, m.to_str().unwrap(), src.to_str().unwrap()])
            .args(["--deny-cost", "100"])
            .output()
            .unwrap();
        assert_eq!(ok.status.code(), Some(0), "{cmd} under threshold");
        let refused = dexcli()
            .args([cmd, m.to_str().unwrap(), src.to_str().unwrap()])
            .args(["--deny-cost", "1"])
            .output()
            .unwrap();
        assert_eq!(refused.status.code(), Some(2), "{cmd} over threshold");
        let err = String::from_utf8(refused.stderr).unwrap();
        assert!(err.contains("DEX502"), "{cmd}: {err}");
        assert!(
            String::from_utf8(refused.stdout).unwrap().is_empty(),
            "{cmd}: refusal must not print a partial instance"
        );
    }
    // Non-jointly-acyclic mappings predict unbounded cost and are
    // refused at *any* threshold.
    let bad = dir.write(
        "cost_bad.dex",
        "source Emp(name, mgr);\ntarget Succ(emp, mgr);\n\
         Emp(x, y) -> Succ(x, y);\nSucc(x, y) -> Succ(y, z);",
    );
    let bad_src = dir.write("cost_bad_src.json", r#"{"Emp": [["a", "b"]]}"#);
    let out = dexcli()
        .args(["chase", bad.to_str().unwrap(), bad_src.to_str().unwrap()])
        .args(["--deny-cost", &u64::MAX.to_string()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unbounded"), "{err}");
}

#[test]
fn auto_budget_synthesized_caps_never_trip() {
    let dir = TempDir::new("auto_budget_synthesized_caps_never_trip");
    // --auto-budget turns the predicted bounds into governor caps; on
    // an admitted (weakly acyclic) mapping they must never trip, so the
    // output matches the unbudgeted run exactly.
    let m = emp_mapping_file(&dir);
    let src = dir.write("auto_src.json", r#"{"Emp": [["Alice"], ["Bob"]]}"#);
    for cmd in ["chase", "exchange"] {
        let plain = dexcli()
            .args([cmd, m.to_str().unwrap(), src.to_str().unwrap()])
            .output()
            .unwrap();
        let auto = dexcli()
            .args([cmd, m.to_str().unwrap(), src.to_str().unwrap()])
            .arg("--auto-budget")
            .output()
            .unwrap();
        assert_eq!(auto.status.code(), Some(0), "{cmd} with --auto-budget");
        assert_eq!(plain.stdout, auto.stdout, "{cmd}: budget changed output");
    }
    // Explicit caps still take precedence over synthesized ones: a
    // 0-null cap trips on this null-inventing mapping even with
    // --auto-budget supplying a laxer one.
    let out = dexcli()
        .args(["chase", m.to_str().unwrap(), src.to_str().unwrap()])
        .args(["--auto-budget", "--max-nulls", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "explicit cap must win");
}

#[test]
fn exchange_stats_json_reports_predicted_bounds() {
    let dir = TempDir::new("exchange_stats_json_reports_predicted_bounds");
    let m = emp_mapping_file(&dir);
    let src = dir.write("pred_src.json", r#"{"Emp": [["Alice"], ["Bob"]]}"#);
    for cmd in ["chase", "exchange"] {
        let out = dexcli()
            .args([cmd, m.to_str().unwrap(), src.to_str().unwrap()])
            .args(["--stats", "--format", "json"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{cmd}");
        let stats: serde_json::Value =
            serde_json::from_str(String::from_utf8(out.stderr).unwrap().trim()).unwrap();
        let p = &stats["predicted"];
        // Two source tuples, one null-inventing st-tgd: 2 nulls and 2
        // tuples exactly; the firing bound also covers potential egd
        // merges, so it is ≥ the 2 real firings.
        assert_eq!(p["nulls"].as_u64(), Some(2), "{cmd}: {stats}");
        assert_eq!(p["tuples"].as_u64(), Some(2), "{cmd}: {stats}");
        assert!(p["firings"].as_u64() >= Some(2), "{cmd}: {stats}");
        assert!(p["bytes"].as_u64().is_some(), "{cmd}: {stats}");
    }
}

#[test]
fn bad_instance_reports_error() {
    let dir = TempDir::new("bad_instance_reports_error");
    let m = emp_mapping_file(&dir);
    let bad = dir.write("bad.json", r#"{"Nope": [["x"]]}"#);
    let out = dexcli().arg("chase").arg(&m).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown relation"), "{err}");
}
