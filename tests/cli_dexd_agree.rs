//! Differential test: `dexcli` and `dexd` front the same request
//! pipeline, so the same mapping, source and budget must give the same
//! outcome class — exit 0 ↔ 200, 3 ↔ 206, 2 ↔ 422 — and the same
//! instance JSON, byte for byte. Lint gives the same diagnostics JSON.
//!
//! The daemon side goes through `dexd::handlers::route` on a live
//! server context, with no sockets in between.

mod common;

use common::TempDir;
use dex::logic::parse_mapping;
use dexd::handlers::route;
use dexd::{Catalog, Request, ServerConfig, ServerHandle};
use serde_json::Value as Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every fixture in `examples/mappings/` that parses and lints without
/// errors.
const GOOD: &[&str] = &[
    "approx_ids",
    "employees",
    "eq_a",
    "eq_b",
    "eq_c",
    "evolution",
    "ja_terminating",
    "redundant_premise",
    "redundant_subsumed",
    "university",
];

/// Small sources: the shipped `employees_small.json`, a few
/// hand-written employee sources, and one per remaining source schema.
/// Each fixture runs on every source whose relations it declares.
const SOURCES: &[&str] = &[
    include_str!("../examples/instances/employees_small.json"),
    r#"{"Emp": [["ann","eng"],["bob","ops"]], "Dept": [["eng","dana"],["ops","erin"]]}"#,
    r#"{"Takes": [["ann","db"],["bob","pl"],["ann","pl"]]}"#,
    "{}",
    r#"{"Emp": [["ann","eng"],["bob","eng"],["cy","ops"]]}"#,
    r#"{"PersonV1": [[1,"ann","oslo"],[2,"bob","rome"]]}"#,
    r#"{"R": [["x"],["y"]]}"#,
];

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn fixture(name: &str) -> PathBuf {
    repo_file(&format!("examples/mappings/{name}.dex"))
}

/// Exit code and stdout of one `dexcli` run.
fn cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dexcli"))
        .args(args)
        .output()
        .unwrap();
    let code = out.status.code().expect("dexcli exited by signal");
    (code, String::from_utf8(out.stdout).unwrap())
}

/// Status and body of one request routed through the daemon.
fn daemon(srv: &ServerHandle, path: &str, body: &Json) -> (u16, Json) {
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        body: serde_json::to_string(body).unwrap().into_bytes(),
    };
    let resp = route(&req, srv.ctx());
    let body = std::str::from_utf8(&resp.body).unwrap();
    (resp.status, serde_json::from_str(body).unwrap())
}

/// The outcome class both front ends must agree on.
fn class_of_exit(code: i32) -> &'static str {
    match code {
        0 => "complete",
        3 => "partial",
        2 => "refused",
        _ => "error",
    }
}

fn class_of_status(status: u16) -> &'static str {
    match status {
        200 => "complete",
        206 => "partial",
        422 => "refused",
        _ => "error",
    }
}

fn spawn(names: &[&str], tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let specs: Vec<(String, PathBuf)> = names.iter().map(|n| (n.to_string(), fixture(n))).collect();
    let mut config = ServerConfig::default();
    tweak(&mut config);
    ServerHandle::spawn(config, Catalog::load(&specs).unwrap()).unwrap()
}

/// Run `op` on both front ends and assert they agree.
fn assert_agree(srv: &ServerHandle, dir: &TempDir, name: &str, op: &str, source: &str) {
    let src_path = dir.write(&format!("{name}-src.json"), source);
    let (code, stdout) = cli(&[
        op,
        fixture(name).to_str().unwrap(),
        src_path.to_str().unwrap(),
    ]);
    let body = serde_json::json!({ "source": serde_json::from_str::<Json>(source).unwrap() });
    let (status, resp) = daemon(srv, &format!("/v1/mappings/{name}/{op}"), &body);
    let what = format!("{op} {name} on {source}");

    // An exchange whose mapping does not compile to lenses is the one
    // documented asymmetry: a usage error to the CLI (exit 1),
    // unprocessable to the daemon (422).
    if op == "exchange"
        && dex::core::compile(&parse_mapping(&read(&fixture(name))).unwrap()).is_err()
    {
        assert_eq!((code, status), (1, 422), "{what}");
        return;
    }
    assert_eq!(
        class_of_exit(code),
        class_of_status(status),
        "{what}: exit {code} vs status {status}: {resp}"
    );
    let instance = match status {
        200 => &resp["target"],
        206 => &resp["partial"],
        _ => return,
    };
    assert_eq!(
        stdout.trim_end(),
        serde_json::to_string_pretty(instance).unwrap(),
        "{what}: instance JSON differs"
    );
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

fn source_relations(name: &str) -> BTreeSet<String> {
    let m = parse_mapping(&read(&fixture(name))).unwrap();
    m.source()
        .relations()
        .map(|r| r.name().to_string())
        .collect()
}

#[test]
fn chase_and_exchange_agree_on_every_good_fixture() {
    let dir = TempDir::new("cli_dexd_agree");
    let srv = spawn(GOOD, |_| {});
    for name in GOOD {
        let declared = source_relations(name);
        for source in SOURCES {
            let json: Json = serde_json::from_str(source).unwrap();
            let fits = json
                .as_object()
                .unwrap()
                .iter()
                .all(|(r, _)| declared.contains(r));
            if !fits {
                continue;
            }
            for op in ["chase", "exchange"] {
                assert_agree(&srv, &dir, name, op, source);
            }
        }
    }
    srv.shutdown();
}

#[test]
fn lint_agrees_on_every_parsable_fixture() {
    let names: Vec<&str> = GOOD
        .iter()
        .copied()
        .chain([
            "bad_clash",
            "bad_non_terminating",
            "bad_redundant",
            "bad_uncompilable",
            "bad_unused",
        ])
        .collect();
    let srv = spawn(&names, |_| {});
    for name in &names {
        let (code, stdout) = cli(&["lint", "--format", "json", fixture(name).to_str().unwrap()]);
        let report: Json = serde_json::from_str(&stdout).unwrap();
        let (status, resp) = daemon(&srv, &format!("/v1/mappings/{name}/lint"), &Json::Null);
        assert_eq!(
            class_of_exit(code),
            class_of_status(status),
            "lint {name}: exit {code} vs status {status}: {resp}"
        );
        let diags = &report[0]["diagnostics"];
        assert_eq!(
            serde_json::to_string(diags).unwrap(),
            serde_json::to_string(&resp["diagnostics"]).unwrap(),
            "lint {name}: diagnostics differ"
        );
        // Both wires spell a code as the registry and text output do.
        for d in diags.as_array().unwrap() {
            let code = d["code"].as_str().unwrap();
            assert!(
                code.starts_with("DEX") && dex::analyze::Code::parse(code).is_some(),
                "lint {name}: code spelled `{code}`"
            );
        }
    }
    srv.shutdown();
}

#[test]
fn unbudgeted_divergent_chase_stops_at_the_same_partial() {
    let dir = TempDir::new("cli_dexd_agree_divergent");
    let srv = spawn(&["bad_non_terminating"], |_| {});
    assert_agree(
        &srv,
        &dir,
        "bad_non_terminating",
        "chase",
        r#"{"Emp": [["a","b"]]}"#,
    );
    srv.shutdown();
}

#[test]
fn deny_cost_refuses_on_both_front_ends() {
    let dir = TempDir::new("cli_dexd_agree_deny");
    let src = include_str!("../examples/instances/employees_small.json");
    let src_path = dir.write("src.json", src);
    let srv = spawn(&["employees"], |c| c.deny_cost = Some(1));
    for op in ["chase", "exchange"] {
        let (code, stdout) = cli(&[
            op,
            fixture("employees").to_str().unwrap(),
            src_path.to_str().unwrap(),
            "--deny-cost",
            "1",
        ]);
        let body = serde_json::json!({ "source": serde_json::from_str::<Json>(src).unwrap() });
        let (status, resp) = daemon(&srv, &format!("/v1/mappings/employees/{op}"), &body);
        assert_eq!((code, status), (2, 422), "{op}: {resp}");
        assert!(stdout.is_empty(), "{op}: a refused run prints no instance");
        assert_eq!(
            resp["error"]["kind"].as_str(),
            Some("admission_refused"),
            "{op}"
        );
    }
    srv.shutdown();
}

#[test]
fn migrating_a_completed_store_agrees() {
    let dir = TempDir::new("cli_dexd_agree_migrate");
    let root = dir.path().join("stores");
    let src_path = dir.write(
        "src.json",
        include_str!("../examples/instances/employees_small.json"),
    );
    // Two identical completed stores, one per front end.
    for run in ["run-cli", "run-dexd"] {
        let store = root.join("employees").join(run);
        let (code, _) = cli(&[
            "chase",
            fixture("employees").to_str().unwrap(),
            src_path.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "building {run}");
    }
    let schema =
        "target Worker(name, dept, mgr, office);\nkey Worker(name);\ntarget Audit(name);\n";
    let schema_path = dir.write("new.dex", schema);

    let cli_store = root.join("employees").join("run-cli");
    let (code, _) = cli(&[
        "migrate",
        cli_store.to_str().unwrap(),
        schema_path.to_str().unwrap(),
    ]);
    let srv = spawn(&["employees"], |c| c.store_root = Some(root.clone()));
    let (status, resp) = daemon(
        &srv,
        "/v1/mappings/employees/migrate",
        &serde_json::json!({ "run": "run-dexd", "schema": schema }),
    );
    srv.shutdown();
    assert_eq!((code, status), (0, 200), "{resp}");

    // Both stores now serve the same migrated instance.
    let (c1, migrated_cli) = cli(&["resume", cli_store.to_str().unwrap()]);
    let dexd_store = root.join("employees").join("run-dexd");
    let (c2, migrated_dexd) = cli(&["resume", dexd_store.to_str().unwrap()]);
    assert_eq!((c1, c2), (0, 0));
    let migrated: Json = serde_json::from_str(&migrated_cli).unwrap();
    let workers = migrated["Worker"].as_array().unwrap();
    assert_eq!(workers.len(), 3, "{migrated_cli}");
    assert!(
        workers.iter().all(|w| w.as_array().unwrap().len() == 4),
        "every Worker row gained the office column: {migrated_cli}"
    );
    assert_eq!(migrated_cli, migrated_dexd);
}
