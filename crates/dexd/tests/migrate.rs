//! Live schema migration through the daemon: the
//! `POST /v1/mappings/{name}/migrate` contract, the migration
//! quarantine (503 for other operations while a migration holds the
//! slot), the `/readyz` availability body, and — the crash-safety
//! core — a drain-cancelled migration suspending at a durable,
//! resumable checkpoint that a later process finishes.

mod common;

use common::{request, TempDir, COPY};
use dex_store::{fsck, MigrateStatus, Migration, StoreOptions};
use dexd::{Catalog, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};

fn spawn(specs: &[(&str, &str)], tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::default();
    tweak(&mut config);
    let catalog = Catalog::from_texts(specs).expect("catalog");
    ServerHandle::spawn(config, catalog).expect("spawn")
}

/// Persist one completed run for `emp` and return its store directory.
fn persist_run(srv: &ServerHandle, root: &Path) -> PathBuf {
    let body = r#"{"source": {"A": [["one"], ["two"]]}, "persist": true}"#;
    let r = request(srv.addr(), "POST", "/v1/mappings/emp/chase", body);
    assert_eq!(r.status, 200, "{}", r.raw_body);
    root.join("emp").join("run-0")
}

#[test]
fn migrate_endpoint_commits_and_shows_in_statz() {
    let root = TempDir::new("commit");
    let srv = spawn(&[("emp", COPY)], |c| {
        c.store_root = Some(root.to_path_buf())
    });
    let dir = persist_run(&srv, &root);

    let body = r#"{"run": "run-0", "schema": "target B(x, y);\n"}"#;
    let r = request(srv.addr(), "POST", "/v1/mappings/emp/migrate", body);
    assert_eq!(r.status, 200, "{}", r.raw_body);
    assert_eq!(r.field("committed").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(r.field("tuples").and_then(|v| v.as_u64()), Some(2));
    let smos = r.field("smos").and_then(|v| v.as_array()).unwrap();
    assert!(
        smos[0].as_str().unwrap().contains("ADD COLUMN B.y"),
        "{}",
        r.raw_body
    );

    // Staging is gone, the store is clean, the slot is released.
    assert!(!dir.join("migrate").exists());
    assert!(fsck(&dir).unwrap().is_clean());
    let s = request(srv.addr(), "GET", "/statz", "");
    assert_eq!(
        s.field("mappings.emp.migrating").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert!(
        s.field("latency.migrate.count").and_then(|v| v.as_u64()) >= Some(1),
        "{}",
        s.raw_body
    );
    assert!(
        s.field("latency.chase.p99_us").and_then(|v| v.as_u64()) >= Some(1),
        "{}",
        s.raw_body
    );
    srv.shutdown();
}

#[test]
fn migrate_refusals_are_typed() {
    // No store root: nothing to migrate against.
    let srv = spawn(&[("emp", COPY)], |_| {});
    let r = request(
        srv.addr(),
        "POST",
        "/v1/mappings/emp/migrate",
        r#"{"run": "run-0", "schema": "target B(x);"}"#,
    );
    assert_eq!(r.status, 400, "{}", r.raw_body);
    srv.shutdown();

    let root = TempDir::new("refuse");
    let srv = spawn(&[("emp", COPY)], |c| {
        c.store_root = Some(root.to_path_buf())
    });
    persist_run(&srv, &root);
    let addr = srv.addr();
    let post = |body: &str| request(addr, "POST", "/v1/mappings/emp/migrate", body);

    assert_eq!(post(r#"{"schema": "target B(x);"}"#).status, 400, "no run");
    assert_eq!(
        post(r#"{"run": "../emp/run-0", "schema": "target B(x);"}"#).status,
        400,
        "path traversal refused"
    );
    assert_eq!(
        post(r#"{"run": "run-9", "schema": "target B(x);"}"#).status,
        404,
        "unknown run"
    );
    assert_eq!(
        post(r#"{"run": "run-0"}"#).status,
        400,
        "schema required without resume"
    );
    assert_eq!(
        post(r#"{"run": "run-0", "schema": "source A(x);\ntarget B(x);\nA(v) -> B(v);"}"#).status,
        400,
        "rules in the schema file refused"
    );
    // B(x) could be a rename of either same-shape table: ambiguous,
    // refused before any byte of the store is touched.
    let r = post(r#"{"run": "run-0", "schema": "target C(x);\ntarget D(x);"}"#);
    assert_eq!(r.status, 422, "{}", r.raw_body);
    assert_eq!(
        post(r#"{"run": "run-0", "resume": true}"#).status,
        409,
        "nothing staged to resume"
    );
    assert!(!root.join("emp").join("run-0").join("migrate").exists());
    srv.shutdown();
}

#[test]
fn migration_slot_quarantines_other_operations_and_readyz_reports_it() {
    let srv = spawn(&[("emp", COPY), ("emp2", COPY)], |_| {});
    let addr = srv.addr();
    let emp = srv.ctx().catalog.get("emp").unwrap().clone();
    assert!(emp.try_begin_migration());

    // Other operations on the migrating mapping: 503. Other tenants
    // and a second migration attempt: unaffected / 409.
    let r = request(
        addr,
        "POST",
        "/v1/mappings/emp/chase",
        r#"{"source": {"A": []}}"#,
    );
    assert_eq!(r.status, 503, "{}", r.raw_body);
    let r = request(
        addr,
        "POST",
        "/v1/mappings/emp/migrate",
        r#"{"run": "run-0", "schema": "target B(x);"}"#,
    );
    assert_eq!(r.status, 409, "{}", r.raw_body);
    let r = request(
        addr,
        "POST",
        "/v1/mappings/emp2/chase",
        r#"{"source": {"A": []}}"#,
    );
    assert_eq!(r.status, 200, "other tenants keep serving: {}", r.raw_body);

    // readyz: still ready (one of two available), but lists the
    // migrating mapping.
    let r = request(addr, "GET", "/readyz", "");
    assert_eq!(r.status, 200, "{}", r.raw_body);
    assert_eq!(
        r.field("migrating")
            .and_then(|v| v.as_array())
            .map(Vec::len),
        Some(1)
    );

    // Quarantine the second mapping too: now every mapping is
    // unavailable and readyz flips to 503.
    srv.ctx().catalog.get("emp2").unwrap().poison();
    let r = request(addr, "GET", "/readyz", "");
    assert_eq!(r.status, 503, "{}", r.raw_body);
    assert_eq!(
        r.field("status").and_then(|v| v.as_str()),
        Some("unavailable")
    );
    assert_eq!(
        r.field("quarantined")
            .and_then(|v| v.as_array())
            .map(Vec::len),
        Some(1)
    );

    emp.end_migration();
    let r = request(addr, "GET", "/readyz", "");
    assert_eq!(r.status, 200, "slot released: ready again");
    srv.shutdown();
}

#[test]
fn drain_cancellation_suspends_migration_at_a_resumable_checkpoint() {
    let root = TempDir::new("drain");
    let srv = spawn(&[("emp", COPY)], |c| {
        c.store_root = Some(root.to_path_buf())
    });
    let dir = persist_run(&srv, &root);

    // Trip the drain token before the migration starts: every governed
    // step sees the cancellation immediately, which is exactly what a
    // SIGTERM landing mid-migration looks like to the chase.
    srv.ctx().drain_cancel.cancel();
    let body = r#"{"run": "run-0", "schema": "target B(x, y);\n"}"#;
    let r = request(srv.addr(), "POST", "/v1/mappings/emp/migrate", body);
    assert_eq!(r.status, 206, "{}", r.raw_body);
    assert_eq!(r.field("resumable").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        r.field("exhausted.reason").and_then(|v| v.as_str()),
        Some("cancelled"),
        "{}",
        r.raw_body
    );
    srv.shutdown();

    // The staging checkpoint is durable, the live store untouched and
    // authoritative (fsck: a note, not a problem).
    assert!(matches!(
        dex_store::migrate::status(&dir).unwrap(),
        MigrateStatus::InProgress { .. }
    ));
    let report = fsck(&dir).unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(
        format!("{report}").contains("migration in progress"),
        "{report}"
    );

    // "The next process": resume the staged migration directly against
    // the store — the daemon is gone, the directory carries everything.
    let mut mig = Migration::resume(&dir, StoreOptions::default()).unwrap();
    let gov = dex_chase::Governor::unlimited();
    match mig.run(dex_chase::ChaseOptions::default(), &gov).unwrap() {
        dex_store::MigrateRun::Done(state) => {
            assert_eq!(state.instance.fact_count(), 2);
            mig.finalize().unwrap();
        }
        dex_store::MigrateRun::Suspended(r) => panic!("resume suspended: {r:?}"),
    }
    assert!(matches!(
        dex_store::migrate::status(&dir).unwrap(),
        MigrateStatus::None
    ));
    assert!(fsck(&dir).unwrap().is_clean());
}
