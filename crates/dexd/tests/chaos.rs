//! Chaos matrix: every `server.*` fail-point site × {Error, Panic},
//! injected into a *single* long-lived daemon. After each injection
//! the contract is the same three-part check: the client that hit the
//! fault got either a well-formed 4xx/5xx or a clean connection drop
//! (never a half-written response), the very next request succeeds,
//! and the daemon's health endpoint still answers. A final persisted
//! chase plus drain proves the store layer survived the whole storm
//! fsck-clean.
//!
//! Run with `cargo test -p dexd --features failpoints --test chaos`.
#![cfg(feature = "failpoints")]

mod common;

use common::{request, try_request, TempDir, COPY};
use dex_relational::fail::{arm, clear, exclusive, FailAction, SERVER_SITES};
use dexd::{Catalog, ServerConfig, ServerHandle};

const CHASE_BODY: &str = r#"{"source": {"A": [["x"]]}}"#;

/// What the faulted client is allowed to observe at each site.
fn check_faulted_reply(site: &str, action: FailAction, reply: Option<common::Reply>) {
    match (site, reply) {
        // The acceptor drops the connection before any response can
        // exist — the client sees a clean close, nothing torn.
        ("server.accept", reply) => assert!(
            reply.is_none(),
            "{site}/{action:?}: accept faults drop the connection"
        ),
        (_, None) => panic!("{site}/{action:?}: no response from a live worker"),
        (_, Some(reply)) => {
            let expect = match (site, action) {
                // An injected read error is indistinguishable from a
                // malformed request → 400; everything else lands
                // behind the panic barrier / dispatch guard → 500.
                ("server.read_request", FailAction::Error) => 400,
                _ => 500,
            };
            assert_eq!(
                reply.status, expect,
                "{site}/{action:?}: {}",
                reply.raw_body
            );
            assert!(
                reply.field("error.kind").is_some() || reply.status == 500,
                "{site}/{action:?}: error responses are typed JSON: {}",
                reply.raw_body
            );
        }
    }
}

#[test]
fn server_fail_matrix_leaves_the_daemon_serving() {
    let _gate = exclusive();
    clear();
    let root = TempDir::new("dexd-chaos");

    let config = ServerConfig {
        workers: 2,
        store_root: Some(root.to_path_buf()),
        ..ServerConfig::default()
    };
    let catalog = Catalog::from_texts(&[("copy", COPY)]).expect("catalog");
    let srv = ServerHandle::spawn(config, catalog).expect("spawn");
    let addr = srv.addr();

    for &site in SERVER_SITES {
        for action in [FailAction::Error, FailAction::Panic] {
            arm(site, action, 1);
            let reply = try_request(addr, "POST", "/v1/mappings/copy/chase", CHASE_BODY);
            clear();
            check_faulted_reply(site, action, reply);

            // The daemon is unharmed: health answers and the very
            // next real request completes.
            let h = request(addr, "GET", "/healthz", "");
            assert_eq!(h.status, 200, "{site}/{action:?}: daemon stayed up");
            let ok = request(addr, "POST", "/v1/mappings/copy/chase", CHASE_BODY);
            assert_eq!(
                ok.status, 200,
                "{site}/{action:?}: next request serves: {}",
                ok.raw_body
            );
        }
    }

    // The storm is over; the injected panics were per-request faults,
    // not mapping bugs, so nothing is quarantined.
    let s = request(addr, "GET", "/statz", "");
    assert_eq!(
        s.field("mappings.copy.poisoned").and_then(|v| v.as_bool()),
        Some(false),
        "injected faults never poison the mapping: {}",
        s.raw_body
    );
    let panics = s.field("server.panics").and_then(|v| v.as_u64());
    assert!(
        panics.is_some_and(|n| n >= 3),
        "panic injections are counted: {}",
        s.raw_body
    );

    // Persist one chase through the battle-worn daemon, drain, and
    // fsck what it wrote: zero lost rounds, clean store.
    let persisted = request(
        addr,
        "POST",
        "/v1/mappings/copy/chase",
        r#"{"source": {"A": [["x"], ["y"]]}, "persist": true}"#,
    );
    assert_eq!(persisted.status, 200, "{}", persisted.raw_body);
    let dir = persisted
        .field("store")
        .and_then(|v| v.as_str())
        .expect("store dir in response")
        .to_string();
    srv.shutdown();
    let report = dex_store::fsck::fsck(std::path::Path::new(&dir)).expect("fsck runs");
    assert!(report.is_clean(), "store survives the chaos run: {report}");
}
