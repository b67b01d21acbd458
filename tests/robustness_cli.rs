//! Robustness tests for the `dexcli` binary: budget exhaustion exit
//! codes, partial results, and a fuzz harness asserting the process
//! never dies of a panic (exit 70) or a signal on hostile input.

mod common;

use common::TempDir;
use proptest::prelude::*;
use std::io::Read;
use std::process::{Command, Stdio};

fn dexcli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dexcli"))
}

/// Path of a file shipped with the repository.
fn repo_file(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

// ---------------------------------------------------------------------
// Pinned budget-exhaustion behaviour
// ---------------------------------------------------------------------

/// The repository's canonical non-terminating mapping under a 50 ms
/// deadline: the chase must stop, print a non-empty valid partial
/// instance to stdout, report the trip on stderr, and exit 3.
#[test]
fn non_terminating_chase_under_deadline_yields_partial_and_exit_3() {
    let tmp = TempDir::new("deadline");
    let src = tmp.write("nt-src.json", br#"{"Emp": [["a", "b"]]}"#);
    let out = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/bad_non_terminating.dex"))
        .arg(&src)
        .args(["--timeout", "50ms"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "expected exhaustion exit code");
    let err = String::from_utf8(out.stderr).unwrap();
    // A run with a deadline and no other cap has no rounds cap (the
    // 10 000-round fallback applies only to a run with no cap at all),
    // so only the deadline can stop it.
    assert!(err.contains("budget exhausted"), "stderr: {err}");
    assert!(err.contains("deadline"), "stderr: {err}");
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let succ = json.get("Succ").and_then(|v| v.as_array()).unwrap();
    assert!(!succ.is_empty(), "partial result must be non-empty");
}

#[test]
fn tuple_budget_trips_chase_with_exit_3() {
    let tmp = TempDir::new("tuple-budget");
    let src = tmp.write("nt-src2.json", br#"{"Emp": [["a", "b"]]}"#);
    let out = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/bad_non_terminating.dex"))
        .arg(&src)
        .args(["--max-tuples", "10"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("derived-tuple limit"), "stderr: {err}");
}

#[test]
fn generous_budget_does_not_change_a_terminating_run() {
    let tmp = TempDir::new("generous-budget");
    let m = tmp.write(
        "emp.dex",
        b"source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let src = tmp.write("emp-src.json", br#"{"Emp": [["Alice"], ["Bob"]]}"#);
    let plain = dexcli().arg("chase").arg(&m).arg(&src).output().unwrap();
    let governed = dexcli()
        .arg("chase")
        .arg(&m)
        .arg(&src)
        .args([
            "--timeout",
            "1m",
            "--max-rounds",
            "1000",
            "--max-memory",
            "1g",
        ])
        .output()
        .unwrap();
    assert!(plain.status.success());
    assert!(governed.status.success());
    assert_eq!(plain.stdout, governed.stdout);
}

#[test]
fn governed_exchange_and_query_accept_budget_flags() {
    let tmp = TempDir::new("governed-flags");
    let m = tmp.write(
        "emp2.dex",
        b"source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let src = tmp.write("emp2-src.json", br#"{"Emp": [["Alice"]]}"#);
    let ex = dexcli()
        .arg("exchange")
        .arg(&m)
        .arg(&src)
        .args(["--timeout", "1m"])
        .output()
        .unwrap();
    assert!(
        ex.status.success(),
        "{}",
        String::from_utf8_lossy(&ex.stderr)
    );
    let q = dexcli()
        .arg("query")
        .arg(&m)
        .arg(&src)
        .arg("q(x) :- Manager(x, y)")
        .args(["--max-tuples", "1000"])
        .output()
        .unwrap();
    assert!(q.status.success(), "{}", String::from_utf8_lossy(&q.stderr));
    let rows: serde_json::Value =
        serde_json::from_str(&String::from_utf8(q.stdout).unwrap()).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 1);
}

#[test]
fn malformed_budget_values_are_usage_errors() {
    let tmp = TempDir::new("malformed-budget");
    let src = tmp.write("x.json", b"{}");
    for flags in [
        ["--timeout", "soon"],
        ["--max-tuples", "-3"],
        ["--max-memory", "lots"],
    ] {
        let out = dexcli()
            .arg("chase")
            .arg(repo_file("examples/mappings/employees.dex"))
            .arg(&src)
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "flags {flags:?}");
    }
}

/// The governor's budget is the only round cap: `--max-rounds` above
/// the 10 000-round default ceiling is honoured, not cut short by a
/// hidden second cap.
#[test]
fn max_rounds_above_the_default_ceiling_is_honoured() {
    let tmp = TempDir::new("max-rounds");
    let src = tmp.write("rc-src.json", br#"{"Emp": [["a","b"]]}"#);
    let out = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/bad_non_terminating.dex"))
        .arg(&src)
        .args(["--max-rounds", "10005", "--stats", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err: serde_json::Value =
        serde_json::from_str(String::from_utf8(out.stderr).unwrap().trim()).unwrap();
    assert_eq!(err["exhausted"]["reason"].as_str(), Some("rounds"));
    assert_eq!(
        err["exhausted"]["rounds_committed"].as_u64(),
        Some(10006),
        "a run may commit exactly --max-rounds rounds; one more trips"
    );
}

/// Every command takes its flags and positionals the same way: a flag
/// it does not know and a positional beyond its arity are both usage
/// errors (exit 1) that write nothing to stdout. `--threads` is refused
/// too: the chase matches on one thread and has no thread count to set.
#[test]
fn every_command_rejects_unknown_flags_and_surplus_positionals() {
    let tmp = TempDir::new("grammar");
    let m = repo_file("examples/mappings/employees.dex");
    let src = repo_file("examples/instances/employees_small.json");
    let (m, src) = (m.to_str().unwrap(), src.to_str().unwrap());
    let store = tmp.join("store");
    let store = store.to_str().unwrap();
    let made = dexcli()
        .args(["chase", m, src, "--no-sync", "--store", store])
        .output()
        .unwrap();
    assert_eq!(made.status.code(), Some(0));
    let q = "q(x) :- Worker(x, d, m)";
    // Each command with valid arguments; `None` where every positional
    // count is accepted, so no argument is surplus.
    let commands: &[(&[&str], Option<&str>)] = &[
        (&["help"], Some("x")),
        (&["plan", m], Some("x")),
        (&["check", m], Some("x")),
        (&["lint", m], None),
        (&["lint", "--explain", "DEX201"], Some(m)),
        (&["explain", m], Some("x")),
        (&["optimize", m], Some("x")),
        (&["eq", m, m], Some("x")),
        (&["chase", m, src], Some("out.json")),
        (&["exchange", m, src, src], Some("x")),
        (&["backward", m, src, src], Some("x")),
        (&["compose", m, m], Some("x")),
        (&["recover", m], Some("x")),
        (&["query", m, src, q], Some("x")),
        (&["resume", store], Some("x")),
        (&["fsck", store], Some("x")),
        (&["migrate", store, m, "--dry-run"], Some("x")),
        (&["migrate", store, "--resume"], Some(m)),
        (&["serve", "--map", "e=m.dex"], None),
    ];
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for (args, surplus) in commands {
        for bad in [&["--bogus-flag"][..], &["--threads", "2"]] {
            cases.push([*args, bad].concat());
        }
        if let Some(extra) = surplus {
            cases.push([*args, &[*extra]].concat());
        }
    }
    cases.push(vec!["query", m, src, q, "--stats", "--format", "json"]);
    for args in cases {
        let out = dexcli().args(&args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            err.contains("unknown flag") || err.contains("unexpected argument"),
            "{args:?}: {err}"
        );
    }
}

// ---------------------------------------------------------------------
// The exit-code contract, end to end
// ---------------------------------------------------------------------

/// Every documented exit code, produced by a real invocation:
/// 0 success, 1 usage error, 2 lint deny, 3 budget-exhausted partial,
/// 70 internal panic.
#[test]
fn exit_code_contract_covers_all_documented_codes() {
    let tmp = TempDir::new("exit-codes");
    let src = tmp.write("ec-src.json", br#"{"Emp": [["Alice", "Bob"]]}"#);

    // 0 — a terminating chase.
    let ok = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/employees.dex"))
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(ok.status.code(), Some(0), "success exits 0");

    // 1 — a usage error (unknown flag).
    let usage = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/employees.dex"))
        .arg(&src)
        .arg("--definitely-not-a-flag")
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(1), "usage errors exit 1");

    // 2 — lint diagnostics deny the mapping.
    let lint = dexcli()
        .arg("lint")
        .arg(repo_file("examples/mappings/bad_clash.dex"))
        .output()
        .unwrap();
    assert_eq!(lint.status.code(), Some(2), "lint deny exits 2");

    // 3 — budget exhaustion with a valid partial result.
    let exhausted = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/bad_non_terminating.dex"))
        .arg(&src)
        .args(["--max-rounds", "3"])
        .output()
        .unwrap();
    assert_eq!(exhausted.status.code(), Some(3), "exhaustion exits 3");

    // 70 — an internal panic (forced through the test hook so the
    // panic→exit-code path itself is what's under test).
    let panicked = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/employees.dex"))
        .arg(&src)
        .env("DEXCLI_TEST_PANIC", "1")
        .output()
        .unwrap();
    assert_eq!(panicked.status.code(), Some(70), "panics exit 70");
}

/// A reader that closes stdout early (`dexcli chase … | head -c 1`):
/// the failed write is an error, exit 1, not a panic (exit 70). The
/// output (about 1 MB) is far larger than a pipe buffer, so `dexcli`
/// is still writing when the pipe closes.
#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let tmp = TempDir::new("closed-stdout");
    let m = tmp.write(
        "e17.dex",
        b"source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let rows: Vec<String> = (0..20_000).map(|i| format!("[\"e{i}\"]")).collect();
    let src = tmp.write("e17.json", format!("{{\"Emp\": [{}]}}", rows.join(",")));
    let mut child = dexcli()
        .arg("chase")
        .arg(&m)
        .arg(&src)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).unwrap();
    assert_eq!(&first, b"{");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("error: writing stdout"), "stderr: {err}");
}

/// Run `dexcli args` with stdout on a pipe whose read end is closed
/// before the child starts, so its first write to stdout fails.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = dexcli()
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

/// `query` with stdout closed before its first write exits 1 with
/// `error: writing stdout`, not a panic.
#[test]
fn query_on_a_closed_stdout_is_an_error_not_a_panic() {
    let tmp = TempDir::new("closed-stdout-query");
    let m = tmp.write(
        "q.dex",
        b"source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let src = tmp.write("q.json", br#"{"Emp": [["a"], ["b"]]}"#);
    let (code, err) = run_with_closed_stdout(&[
        "query",
        m.to_str().unwrap(),
        src.to_str().unwrap(),
        "q(x) :- Manager(x, m)",
    ]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("error: writing stdout"), "stderr: {err}");
}

/// `fsck` with stdout closed before its first write exits 1 with
/// `error: writing stdout`, not a panic.
#[test]
fn fsck_on_a_closed_stdout_is_an_error_not_a_panic() {
    let tmp = TempDir::new("closed-stdout-fsck");
    let m = tmp.write(
        "f.dex",
        b"source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let src = tmp.write("f.json", br#"{"Emp": [["a"]]}"#);
    let store = tmp.join("store");
    let made = dexcli()
        .arg("chase")
        .arg(&m)
        .arg(&src)
        .arg("--store")
        .arg(&store)
        .args(["--no-sync"])
        .output()
        .unwrap();
    assert_eq!(made.status.code(), Some(0));
    let (code, err) = run_with_closed_stdout(&["fsck", store.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {err}");
    assert!(err.contains("error: writing stdout"), "stderr: {err}");
}

/// Every command that writes to stdout writes through one fallible
/// sink: with stdout closed before the first write, each exits 1 with
/// `error: writing stdout`, never a panic (exit 70).
#[test]
fn every_command_on_a_closed_stdout_is_an_error_not_a_panic() {
    let tmp = TempDir::new("closed-stdout-all");
    let f = |name: &str| repo_file(&format!("examples/mappings/{name}.dex"));
    let m = f("employees");
    let src = repo_file("examples/instances/employees_small.json");
    let tgt = tmp.write("t.json", br#"{"Worker": [["alice", "eng", "dan"]]}"#);
    let m1 = tmp.write(
        "m1.dex",
        b"source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);\n",
    );
    let m2 = tmp.write(
        "m2.dex",
        b"source Manager(emp, mgr);\ntarget Boss(emp, mgr);\nManager(x, y) -> Boss(x, y);\n",
    );
    let schema = tmp.write(
        "v2.dex",
        b"target Worker(name, dept, mgr, zip);\nkey Worker(name);\n",
    );
    let store = tmp.join("store");
    let made = dexcli()
        .arg("chase")
        .arg(&m)
        .arg(&src)
        .arg("--store")
        .arg(&store)
        .args(["--no-sync"])
        .output()
        .unwrap();
    assert_eq!(made.status.code(), Some(0));
    let p = |path: &std::path::Path| path.to_str().unwrap().to_string();
    let [m, src, tgt, m1, m2, schema, store, unused, subsumed, eq_a, eq_b, eq_c] = [
        &m,
        &src,
        &tgt,
        &m1,
        &m2,
        &schema,
        &store,
        &f("bad_unused"),
        &f("redundant_subsumed"),
        &f("eq_a"),
        &f("eq_b"),
        &f("eq_c"),
    ]
    .map(|path| p(path));
    let (m, src, store) = (m.as_str(), src.as_str(), store.as_str());
    let rows: &[&[&str]] = &[
        &["help"],
        &["plan", m],
        &["check", m],
        &["recover", m],
        &["backward", m, &tgt, src],
        &["compose", &m1, &m2],
        &["lint", &unused],
        &["lint", "--format", "json", m],
        &["lint", "--explain", "DEX201"],
        &["explain", m],
        &["explain", m, "--format", "json"],
        &["explain", m, "--format", "dot"],
        &["optimize", &subsumed],
        &["eq", &eq_a, &eq_c],
        &["eq", &eq_a, &eq_b, "--format", "json"],
        &["chase", m, src],
        &["exchange", m, src],
        &["query", m, src, "q(x) :- Worker(x, d, mg)"],
        &["resume", store],
        &["fsck", store],
        &["migrate", store, &schema, "--dry-run"],
    ];
    for args in rows {
        let (code, err) = run_with_closed_stdout(args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains("error: writing stdout"), "{args:?}: {err}");
    }
}

/// `--stats --format json` emits one machine-readable JSON object on
/// stderr with the documented shape, for both outcomes.
#[test]
fn stats_json_has_the_documented_shape() {
    let tmp = TempDir::new("stats-json");
    let src = tmp.write("sj-src.json", br#"{"Emp": [["Alice", "Bob"]]}"#);

    // Complete run: stats present, exhausted is null.
    let ok = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/employees.dex"))
        .arg(&src)
        .args(["--stats", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(ok.status.code(), Some(0));
    let j: serde_json::Value =
        serde_json::from_str(String::from_utf8(ok.stderr).unwrap().trim()).unwrap();
    assert!(j.get("stats").and_then(|s| s.get("rounds")).is_some());
    assert!(matches!(j.get("exhausted"), Some(serde_json::Value::Null)));

    // Exhausted run: the report rides along.
    let ex = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/bad_non_terminating.dex"))
        .arg(&src)
        .args(["--max-rounds", "2", "--stats", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(ex.status.code(), Some(3));
    let j: serde_json::Value =
        serde_json::from_str(String::from_utf8(ex.stderr).unwrap().trim()).unwrap();
    let reason = j
        .get("exhausted")
        .and_then(|e| e.get("reason"))
        .and_then(|r| r.as_str())
        .unwrap();
    assert_eq!(reason, "rounds");
    assert!(j.get("stats").and_then(|s| s.get("rounds")).is_some());

    // --format json without --stats is a usage error.
    let bad = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/employees.dex"))
        .arg(&src)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
}

// ---------------------------------------------------------------------
// Persistence: --store / resume / fsck through the binary
// ---------------------------------------------------------------------

/// An interrupted store-backed chase, resumed via `dexcli resume`,
/// must print the exact instance of the uninterrupted run — same
/// tuples, same labeled-null numbering.
#[test]
fn resume_after_round_cap_matches_uninterrupted_run() {
    let tmp = TempDir::new("resume");
    let src = tmp.write("rs-src.json", br#"{"Emp": [["a", "b"]]}"#);
    let mapping = repo_file("examples/mappings/bad_non_terminating.dex");

    let whole = dexcli()
        .arg("chase")
        .arg(&mapping)
        .arg(&src)
        .args(["--max-rounds", "6"])
        .output()
        .unwrap();
    assert_eq!(whole.status.code(), Some(3));

    let store = tmp.join("store");
    let cut = dexcli()
        .arg("chase")
        .arg(&mapping)
        .arg(&src)
        .args(["--max-rounds", "3", "--no-sync", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        cut.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&cut.stderr)
    );

    let resumed = dexcli()
        .arg("resume")
        .arg(&store)
        .args(["--max-rounds", "6"])
        .output()
        .unwrap();
    assert_eq!(
        resumed.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, whole.stdout,
        "resumed instance ≡ uninterrupted instance"
    );
    let err = String::from_utf8(resumed.stderr).unwrap();
    assert!(err.contains("recovered round"), "stderr: {err}");
}

/// `dexcli fsck` is clean on a healthy store (exit 0), reports a
/// hand-torn WAL (exit 1), and `--repair` truncates the tear so the
/// next fsck passes.
#[test]
fn fsck_detects_and_repairs_a_torn_wal() {
    let tmp = TempDir::new("fsck");
    let src = tmp.write("fk-src.json", br#"{"Emp": [["a", "b"]]}"#);
    let store = tmp.join("store");
    let run = dexcli()
        .arg("chase")
        .arg(repo_file("examples/mappings/bad_non_terminating.dex"))
        .arg(&src)
        .args(["--max-rounds", "3", "--no-sync", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(3));

    let clean = dexcli().arg("fsck").arg(&store).output().unwrap();
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // Tear the WAL mid-record, as a crashed append would.
    let wal = store.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 40, "fixture WAL holds records");
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let torn = dexcli().arg("fsck").arg(&store).output().unwrap();
    assert_eq!(torn.status.code(), Some(1), "torn store fails fsck");
    let report = String::from_utf8(torn.stdout).unwrap();
    assert!(report.to_lowercase().contains("torn"), "report: {report}");

    let repaired = dexcli()
        .arg("fsck")
        .arg(&store)
        .arg("--repair")
        .output()
        .unwrap();
    assert_eq!(
        repaired.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&repaired.stderr)
    );
    let again = dexcli().arg("fsck").arg(&store).output().unwrap();
    assert_eq!(again.status.code(), Some(0), "repaired store passes fsck");

    // The repaired store still resumes.
    let resumed = dexcli()
        .arg("resume")
        .arg(&store)
        .args(["--max-rounds", "5"])
        .output()
        .unwrap();
    assert_eq!(
        resumed.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
}

// ---------------------------------------------------------------------
// Fuzz: lint and parse never panic the process
// ---------------------------------------------------------------------

/// Run `dexcli lint` on `bytes`; the process must terminate normally
/// (no signal) and never with the internal-panic code 70. Exit 0
/// (clean), 1 (usage/IO error), and 2 (parse or lint diagnostics)
/// are all fine.
fn assert_lint_does_not_panic(bytes: &[u8]) {
    let tmp = TempDir::new("fuzz");
    let path = tmp.write("fuzz.dex", bytes);
    let out = dexcli().arg("lint").arg(&path).output().unwrap();
    let code = out.status.code();
    assert!(
        matches!(code, Some(0..=2)),
        "lint on {bytes:?} exited with {code:?}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

const SEED_MAPPING: &str = "\
source Takes(name, course);\n\
target Student(id, name);\n\
key Student(id);\n\
Takes(x, y) -> Student(z, x);\n";

proptest! {
    // Each case spawns a process; keep the count modest for CI.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary printable garbage.
    #[test]
    fn lint_survives_garbage(s in "\\PC{0,120}") {
        assert_lint_does_not_panic(s.as_bytes());
    }

    /// Near-miss `.dex`: one corruption of a valid mapping file.
    #[test]
    fn lint_survives_near_miss_dex(pos in 0usize..120, op in 0u8..4, ch in "\\PC") {
        let base = SEED_MAPPING;
        let mut at = pos.min(base.len());
        while !base.is_char_boundary(at) {
            at -= 1;
        }
        let (head, tail) = base.split_at(at);
        let mutated = match op {
            0 => format!("{head}{}", tail.chars().skip(1).collect::<String>()),
            1 => format!("{head}{ch}{tail}"),
            2 => format!("{head}{ch}{}", tail.chars().skip(1).collect::<String>()),
            _ => head.to_string(),
        };
        assert_lint_does_not_panic(mutated.as_bytes());
    }

    /// Raw non-UTF-8 bytes (the file reader must reject, not panic).
    #[test]
    fn lint_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        assert_lint_does_not_panic(&bytes);
    }
}
