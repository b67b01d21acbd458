//! End-to-end endpoint contract: every route and every status code in
//! the README table, driven against a live in-process daemon over real
//! sockets. This file is also the CI `serve` job's driver — it plays
//! the role a curl script would, without needing curl.

mod common;

use common::{request, try_request, TempDir, COPY, EMPLOYEES, RUNAWAY};
use dexd::{Catalog, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::time::Duration;

fn spawn(specs: &[(&str, &str)], tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::default();
    tweak(&mut config);
    let catalog = Catalog::from_texts(specs).expect("catalog");
    ServerHandle::spawn(config, catalog).expect("spawn")
}

#[test]
fn health_ready_statz_roundtrip() {
    let srv = spawn(&[("emp", EMPLOYEES)], |_| {});
    let addr = srv.addr();
    let h = request(addr, "GET", "/healthz", "");
    assert_eq!(h.status, 200);
    assert_eq!(h.field("status").and_then(|s| s.as_str()), Some("ok"));
    let r = request(addr, "GET", "/readyz", "");
    assert_eq!(r.status, 200);
    let s = request(addr, "GET", "/statz", "");
    assert_eq!(s.status, 200);
    assert_eq!(s.field("v").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        s.field("mappings.emp.compiles").and_then(|v| v.as_bool()),
        Some(true)
    );
    srv.shutdown();
}

#[test]
fn compile_lint_explain_surfaces() {
    let srv = spawn(&[("emp", EMPLOYEES)], |_| {});
    let addr = srv.addr();
    let c = request(addr, "POST", "/v1/mappings/emp/compile", "{}");
    assert_eq!(c.status, 200);
    assert_eq!(c.field("compiled").and_then(|v| v.as_bool()), Some(true));
    let l = request(addr, "POST", "/v1/mappings/emp/lint", "{}");
    assert_eq!(l.status, 200, "employees lints clean: {}", l.raw_body);
    assert_eq!(l.field("errors").and_then(|v| v.as_bool()), Some(false));
    let e = request(addr, "POST", "/v1/mappings/emp/explain", "{}");
    assert_eq!(e.status, 200);
    assert!(e.field("plan").is_some(), "explain returns a plan object");
    srv.shutdown();
}

#[test]
fn lint_and_compile_accept_optimize_flag() {
    // A mapping with a redundant rule: the second st-tgd is subsumed
    // by the first, so the verified optimizer can delete it.
    const REDUNDANT: &str = "source Emp(name, dept);\n\
                             target T(name, dept);\n\
                             Emp(x, y) -> T(x, y);\n\
                             Emp(x, x) -> T(x, x);\n";
    let srv = spawn(&[("red", REDUNDANT)], |_| {});
    let addr = srv.addr();
    let l = request(
        addr,
        "POST",
        "/v1/mappings/red/lint",
        r#"{"optimize": true}"#,
    );
    assert_eq!(l.status, 200, "{}", l.raw_body);
    assert!(
        l.field("optimized.refused")
            .is_some_and(|v| matches!(v, serde_json::Value::Null)),
        "terminating mapping must not be refused: {}",
        l.raw_body
    );
    assert_eq!(
        l.field("optimized.optimized_size.deps")
            .and_then(|v| v.as_u64()),
        Some(1),
        "the subsumed rule is deleted: {}",
        l.raw_body
    );
    let rendered = l
        .field("optimized.mapping")
        .and_then(|v| v.as_str())
        .expect("optimized mapping text");
    assert!(rendered.contains("Emp(x, y) -> T(x, y);"));
    assert!(!rendered.contains("Emp(x, x)"));

    // compile with optimize:true compiles the optimized mapping.
    let c = request(
        addr,
        "POST",
        "/v1/mappings/red/compile",
        r#"{"optimize": true}"#,
    );
    assert_eq!(c.status, 200, "{}", c.raw_body);
    assert_eq!(c.field("compiled").and_then(|v| v.as_bool()), Some(true));
    assert!(c.field("optimized.rewrites").is_some());

    // Without the flag the response shape is unchanged.
    let plain = request(addr, "POST", "/v1/mappings/red/lint", "{}");
    assert!(plain.field("optimized").is_none());
    srv.shutdown();
}

#[test]
fn chase_exchange_put_happy_paths() {
    let srv = spawn(&[("emp", EMPLOYEES)], |_| {});
    let addr = srv.addr();
    let body = r#"{"source":{"Emp":[["ann","eng"]],"Dept":[["eng","bob"]]}}"#;
    let chase = request(addr, "POST", "/v1/mappings/emp/chase", body);
    assert_eq!(chase.status, 200, "{}", chase.raw_body);
    assert_eq!(
        chase.field("stats.v").and_then(|v| v.as_u64()),
        Some(1),
        "stats carry the wire version"
    );
    let rows = chase.field("target.Worker").and_then(|v| v.as_array());
    assert_eq!(rows.map(|r| r.len()), Some(1));

    let exch = request(addr, "POST", "/v1/mappings/emp/exchange", body);
    assert_eq!(exch.status, 200, "{}", exch.raw_body);
    assert_eq!(
        exch.field("target.Worker")
            .and_then(|v| v.as_array())
            .map(|r| r.len()),
        Some(1)
    );

    // Backward: rename ann's manager in the target, put it back.
    let put_body = r#"{
        "target": {"Worker": [["ann", "eng", "carol"]]},
        "source": {"Emp": [["ann", "eng"]], "Dept": [["eng", "bob"]]}
    }"#;
    let put = request(addr, "POST", "/v1/mappings/emp/put", put_body);
    assert_eq!(put.status, 200, "{}", put.raw_body);
    assert!(put.field("source").is_some());
    srv.shutdown();
}

#[test]
fn budget_exhaustion_answers_206_with_versioned_report() {
    let srv = spawn(&[("copy", COPY)], |_| {});
    let addr = srv.addr();
    // Three rows to copy, budget of one derived tuple: must trip.
    let body = r#"{
        "source": {"A": [["p"], ["q"], ["r"]]},
        "budget": {"max-tuples": 1}
    }"#;
    let resp = request(addr, "POST", "/v1/mappings/copy/chase", body);
    assert_eq!(resp.status, 206, "exhaustion is 206: {}", resp.raw_body);
    assert_eq!(
        resp.field("exhausted.v").and_then(|v| v.as_u64()),
        Some(1),
        "report carries the wire version: {}",
        resp.raw_body
    );
    assert_eq!(
        resp.field("exhausted.reason").and_then(|v| v.as_str()),
        Some("tuples")
    );
    assert!(resp.field("partial").is_some(), "partial result included");
    srv.shutdown();
}

#[test]
fn client_errors_are_typed_400_404_405_413() {
    let srv = spawn(&[("emp", EMPLOYEES)], |_| {});
    let addr = srv.addr();
    let bad_json = request(addr, "POST", "/v1/mappings/emp/chase", "{nope");
    assert_eq!(bad_json.status, 400);
    assert_eq!(
        bad_json.field("error.kind").and_then(|v| v.as_str()),
        Some("bad_json")
    );
    let bad_inst = request(
        addr,
        "POST",
        "/v1/mappings/emp/chase",
        r#"{"source": {"Nope": [["x"]]}}"#,
    );
    assert_eq!(bad_inst.status, 400);
    let missing = request(addr, "POST", "/v1/mappings/ghost/chase", "{}");
    assert_eq!(missing.status, 404);
    let badop = request(addr, "POST", "/v1/mappings/emp/frobnicate", "{}");
    assert_eq!(badop.status, 404);
    let badmethod = request(addr, "GET", "/v1/mappings/emp/chase", "");
    assert_eq!(badmethod.status, 405);
    let noroute = request(addr, "GET", "/nope", "");
    assert_eq!(noroute.status, 404);

    // Declared body over the cap: refused from the headers alone.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let huge = dexd::MAX_BODY_BYTES + 1;
    stream
        .write_all(
            format!("POST /v1/mappings/emp/chase HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n")
                .as_bytes(),
        )
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    srv.shutdown();
}

#[test]
fn bad_budget_overrides_are_400_with_the_shared_grammar() {
    let srv = spawn(&[("copy", COPY)], |_| {});
    let addr = srv.addr();
    let resp = request(
        addr,
        "POST",
        "/v1/mappings/copy/chase",
        r#"{"source": {"A": [["x"]]}, "budget": {"timeout": "soon"}}"#,
    );
    assert_eq!(resp.status, 400, "{}", resp.raw_body);
    let msg = resp
        .field("error.message")
        .and_then(|v| v.as_str())
        .unwrap_or("");
    // The same wording BudgetArgs gives the CLI — one parser, both
    // surfaces.
    assert!(msg.contains("500ms"), "shared grammar in message: {msg}");
    let unknown = request(
        addr,
        "POST",
        "/v1/mappings/copy/chase",
        r#"{"source": {"A": [["x"]]}, "budget": {"frobs": 3}}"#,
    );
    assert_eq!(unknown.status, 400);
    srv.shutdown();
}

#[test]
fn admission_control_refuses_422_before_chasing() {
    let srv = spawn(&[("copy", COPY)], |c| c.deny_cost = Some(1));
    let addr = srv.addr();
    // Predicted tuples for 3 source rows exceed a ceiling of 1.
    let resp = request(
        addr,
        "POST",
        "/v1/mappings/copy/chase",
        r#"{"source": {"A": [["p"], ["q"], ["r"]]}}"#,
    );
    assert_eq!(resp.status, 422, "{}", resp.raw_body);
    assert_eq!(
        resp.field("error.kind").and_then(|v| v.as_str()),
        Some("admission_refused")
    );
    assert!(
        resp.field("predicted").is_some(),
        "the refusal shows its evidence"
    );
    let statz = request(addr, "GET", "/statz", "");
    assert_eq!(
        statz.field("server.refused").and_then(|v| v.as_u64()),
        Some(1)
    );
    srv.shutdown();
}

#[test]
fn full_queue_sheds_429_with_retry_after() {
    // One worker, one queue slot. Two connections that send only a
    // partial request each pin the worker and fill the queue
    // deterministically; the third must be shed by the acceptor.
    let srv = spawn(&[("emp", EMPLOYEES)], |c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let addr = srv.addr();
    let hold = |n: &str| {
        let mut s = std::net::TcpStream::connect(addr).expect(n);
        s.write_all(b"POST /v1/mappings/emp/chase HTTP/1.1\r\n")
            .expect(n);
        s
    };
    let _pin_worker = hold("first");
    std::thread::sleep(Duration::from_millis(150)); // let a worker adopt it
    let _fill_queue = hold("second");
    std::thread::sleep(Duration::from_millis(150)); // let the acceptor enqueue it
    let shed = request(addr, "GET", "/healthz", "");
    assert_eq!(shed.status, 429, "{}", shed.raw_body);
    assert_eq!(shed.header("Retry-After"), Some("1"));
    assert_eq!(
        shed.field("error.kind").and_then(|v| v.as_str()),
        Some("overloaded")
    );
    drop(_pin_worker);
    drop(_fill_queue);
    srv.shutdown();
}

#[test]
fn per_tenant_inflight_cap_sheds_429() {
    let srv = spawn(&[("runaway", RUNAWAY), ("copy", COPY)], |c| {
        c.max_inflight_per_mapping = 1;
        c.workers = 4;
        // Let the runaway chase run to its *deadline*: auto-budget
        // would synthesize a rounds cap and trip first.
        c.auto_budget = false;
    });
    let addr = srv.addr();
    // A deadline-bound runaway chase occupies `runaway`'s single slot
    // for ~600ms.
    let slow = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/mappings/runaway/chase",
            r#"{"source": {"S": [["seed"]]}, "budget": {"timeout": "600ms"}}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(200));
    let shed = request(
        addr,
        "POST",
        "/v1/mappings/runaway/chase",
        r#"{"source": {"S": [["seed"]]}}"#,
    );
    assert_eq!(shed.status, 429, "{}", shed.raw_body);
    assert_eq!(
        shed.field("error.kind").and_then(|v| v.as_str()),
        Some("tenant_overloaded")
    );
    // Other tenants are unaffected while `runaway` is saturated.
    let other = request(
        addr,
        "POST",
        "/v1/mappings/copy/chase",
        r#"{"source": {"A": [["x"]]}}"#,
    );
    assert_eq!(other.status, 200);
    let slow = slow.join().expect("slow request");
    assert_eq!(slow.status, 206, "deadline trip is a partial");
    assert_eq!(
        slow.field("exhausted.reason").and_then(|v| v.as_str()),
        Some("deadline")
    );
    srv.shutdown();
}

#[test]
fn drain_answers_503_then_completes_within_deadline() {
    let srv = spawn(&[("runaway", RUNAWAY)], |c| {
        c.drain_deadline = Duration::from_millis(300);
        // Only the 30s request deadline and the drain cancel govern
        // this chase — no synthesized rounds cap tripping early.
        c.auto_budget = false;
    });
    let addr = srv.addr();
    // Occupy a worker past the shutdown point with a long chase.
    let slow = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/v1/mappings/runaway/chase",
            r#"{"source": {"S": [["seed"]]}, "budget": {"timeout": "30s"}}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(200));
    srv.request_shutdown();
    std::thread::sleep(Duration::from_millis(50));
    // New work is refused while the slow request drains.
    let refused = try_request(addr, "GET", "/healthz", "");
    if let Some(r) = &refused {
        assert_eq!(r.status, 503, "{}", r.raw_body);
        assert_eq!(r.header("Retry-After"), Some("1"));
    } // None = listener already closed because the drain finished: also fine.

    // The in-flight request survives shutdown as a 206 partial — the
    // drain deadline cancels it, it does not get dropped.
    let slow = slow.join().expect("drained request");
    assert_eq!(slow.status, 206, "{}", slow.raw_body);
    assert_eq!(
        slow.field("exhausted.reason").and_then(|v| v.as_str()),
        Some("cancelled")
    );
    srv.shutdown();
}

#[test]
fn persisted_chase_writes_a_clean_store() {
    let root = TempDir::new("dexd-store");
    let srv = spawn(&[("emp", EMPLOYEES)], |c| {
        c.store_root = Some(root.to_path_buf())
    });
    let addr = srv.addr();
    let body =
        r#"{"source": {"Emp": [["ann", "eng"]], "Dept": [["eng", "bob"]]}, "persist": true}"#;
    let resp = request(addr, "POST", "/v1/mappings/emp/chase", body);
    assert_eq!(resp.status, 200, "{}", resp.raw_body);
    let dir = resp
        .field("store")
        .and_then(|v| v.as_str())
        .expect("store dir in response")
        .to_string();
    srv.shutdown();
    let report = dex_store::fsck::fsck(std::path::Path::new(&dir)).expect("fsck runs");
    assert!(report.is_clean(), "persisted store is clean: {report}");

    // Restart against the same store root: the run counter must seed
    // past the predecessor's directories, not collide with `run-0`.
    let srv = spawn(&[("emp", EMPLOYEES)], |c| {
        c.store_root = Some(root.to_path_buf())
    });
    let resp2 = request(srv.addr(), "POST", "/v1/mappings/emp/chase", body);
    assert_eq!(
        resp2.status, 200,
        "persist works after a restart: {}",
        resp2.raw_body
    );
    let dir2 = resp2
        .field("store")
        .and_then(|v| v.as_str())
        .expect("store dir in response")
        .to_string();
    assert_ne!(dir, dir2, "restarted daemon picks a fresh run directory");
    srv.shutdown();
}

#[test]
fn slow_loris_cannot_pin_a_worker_past_the_read_deadline() {
    let srv = spawn(&[("emp", EMPLOYEES)], |c| {
        c.workers = 1;
        c.io_timeout = Duration::from_millis(400);
    });
    let addr = srv.addr();
    // Occupy the only worker with a header trickle: every gap is well
    // under any per-read timeout, so only the absolute request-read
    // deadline can end it.
    let loris = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /v1/mappings/emp/chase HTTP/1.1\r\nX-Slow: ")
            .expect("preamble");
        let start = std::time::Instant::now();
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(50));
            if s.write_all(b"x").is_err() {
                return Some(start.elapsed()); // server cut us off
            }
        }
        None
    });
    std::thread::sleep(Duration::from_millis(100)); // let the worker adopt it
                                                    // The worker frees itself once the deadline trips; a normal
                                                    // request queued behind the loris then gets served.
    let h = request(addr, "GET", "/healthz", "");
    assert_eq!(h.status, 200, "{}", h.raw_body);
    let cut = loris
        .join()
        .expect("loris thread")
        .expect("loris connection was cut off");
    assert!(cut < Duration::from_secs(3), "cut at {cut:?}, not ~400ms");
    srv.shutdown();
}

#[test]
fn uncapped_budget_falls_back_to_a_finite_rounds_ceiling() {
    // No deadline, no overrides, no synthesized caps (auto-budget off;
    // RUNAWAY's static bounds are unbounded anyway): the daemon still
    // refuses to chase forever — the fallback rounds ceiling trips
    // into a typed 206 partial instead of pinning a worker for good.
    let srv = spawn(&[("runaway", RUNAWAY)], |c| c.auto_budget = false);
    let resp = request(
        srv.addr(),
        "POST",
        "/v1/mappings/runaway/chase",
        r#"{"source": {"S": [["seed"]]}}"#,
    );
    assert_eq!(resp.status, 206, "{}", resp.raw_body);
    assert_eq!(
        resp.field("exhausted.reason").and_then(|v| v.as_str()),
        Some("rounds")
    );
    srv.shutdown();
}

/// Twin of the CLI's round-cap regression test: a request's
/// `max-rounds` above the 10 000-round default ceiling is honoured.
#[test]
fn max_rounds_above_the_default_ceiling_is_honoured() {
    let mapping = include_str!("../../../examples/mappings/bad_non_terminating.dex");
    let srv = spawn(&[("nt", mapping)], |_| {});
    let resp = request(
        srv.addr(),
        "POST",
        "/v1/mappings/nt/chase",
        r#"{"source": {"Emp": [["a","b"]]}, "budget": {"max-rounds": 10005}}"#,
    );
    assert_eq!(resp.status, 206, "{}", resp.raw_body);
    assert_eq!(
        resp.field("exhausted.reason").and_then(|v| v.as_str()),
        Some("rounds")
    );
    assert_eq!(
        resp.field("exhausted.rounds_committed")
            .and_then(|v| v.as_u64()),
        Some(10006)
    );
    srv.shutdown();
}

#[test]
fn transfer_encoding_chunked_is_refused_with_400() {
    let srv = spawn(&[("emp", EMPLOYEES)], |_| {});
    let mut s = std::net::TcpStream::connect(srv.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    s.write_all(
        b"POST /v1/mappings/emp/chase HTTP/1.1\r\n\
          Transfer-Encoding: chunked\r\n\r\n\
          5\r\nhello\r\n0\r\n\r\n",
    )
    .expect("write");
    let mut raw = Vec::new();
    let _ = s.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 400"),
        "chunked requests are refused, not run on an empty body: {text}"
    );
    srv.shutdown();
}

#[test]
fn uncompilable_mapping_still_serves_analysis_endpoints() {
    // A premise self-join: the lens compiler refuses it, while lint and
    // explain still answer.
    let mapping = include_str!("../../../examples/mappings/bad_uncompilable.dex");
    let srv = spawn(&[("selfjoin", mapping)], |_| {});
    let addr = srv.addr();

    let c = request(addr, "POST", "/v1/mappings/selfjoin/compile", "{}");
    assert_eq!(c.status, 422, "{}", c.raw_body);
    assert_eq!(c.field("compiled").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(
        c.field("error.kind").and_then(|v| v.as_str()),
        Some("uncompilable")
    );
    let message = c.field("error.message").and_then(|v| v.as_str()).unwrap();
    assert!(
        message.contains(
            "tgd `∀x,y,z (S(x, y) ∧ S(y, z) → T(x, z))` joins relation `S` with itself; self-joins \
             need aliasing, which the lens fragment does not support"
        ),
        "{message}"
    );

    // DEX201 is a warning: the mapping still lints with status 200, and
    // the JSON body spells the code as the registry does.
    let l = request(addr, "POST", "/v1/mappings/selfjoin/lint", "{}");
    assert_eq!(l.status, 200, "{}", l.raw_body);
    let diagnostics = l.field("diagnostics").and_then(|v| v.as_array()).unwrap();
    assert!(
        diagnostics
            .iter()
            .any(|d| d["code"].as_str() == Some("DEX201")),
        "{}",
        l.raw_body
    );

    let e = request(addr, "POST", "/v1/mappings/selfjoin/explain", "{}");
    assert_eq!(e.status, 200, "{}", e.raw_body);
    srv.shutdown();
}
