//! Request routing and execution: the `/v1/mappings/{name}/{op}`
//! pipeline with its robustness ladder.
//!
//! Every mapping operation climbs the same ladder, cheapest refusal
//! first, so a request that will not be served costs as little as
//! possible:
//!
//! 1. **resolve** — unknown mapping or operation → 404;
//! 2. **quarantine** — the mapping previously escaped a panic → 503;
//! 3. **per-tenant cap** — too many in-flight requests against this
//!    mapping → 429 + `Retry-After` (one hostile tenant cannot occupy
//!    every worker);
//! 4. **parse** — malformed body JSON or instance → 400;
//! 5. **admission** — the static cost pass proves the chase would blow
//!    the configured ceiling (DEX502-style) → 422 *before a single
//!    tuple is chased*;
//! 6. **budget** — server defaults ∩ request overrides ∩ synthesized
//!    `Budget::from_bounds` caps (the shared [`crate::pipeline`]
//!    rule), plus the server's drain
//!    [`CancelToken`](dex_relational::CancelToken): exhaustion
//!    mid-run returns a typed partial
//!    result (206 + `ExhaustionReport`), not an error;
//! 7. **panic barrier** — a panic inside the operation is caught,
//!    answered with 500, and quarantines the mapping.

use crate::catalog::CatalogEntry;
use crate::http::{Request, Response};
use crate::json::{instance_from_json, splice_instance};
use crate::pipeline::{self, MigrateRefusal, Refused};
use crate::server::ServerCtx;
use dex_analyze::{analyze_with, explain_with, has_errors, sort_diagnostics};
use dex_chase::{ChaseOutcome, Governor};
use dex_core::EngineForward;
use dex_logic::Mapping;
use dex_relational::budget_args::BudgetArgs;
use dex_relational::{fail, Budget, Instance, SourceStats};
use dex_store::migrate::{self as store_migrate, MigrateStatus};
use dex_store::{MigrateRun, Migration, Store, StoreMode, StoreOptions};
use serde_json::{json, Map, Value as Json};
use std::sync::Arc;

/// Route one parsed request to its handler. Never panics outward —
/// the caller still wraps dispatch in the per-request panic barrier,
/// but everything before dispatch is plain error handling.
pub fn route(req: &Request, ctx: &ServerCtx) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, json!({"v": 1, "status": "ok"})),
        ("GET", "/readyz") => readyz(ctx),
        ("GET", "/statz") => Response::json(200, ctx.statz()),
        (method, path) => match path.strip_prefix("/v1/mappings/") {
            Some(rest) => mapping_request(method, rest, &req.body, ctx),
            None => Response::error(404, "not_found", format!("no route for {path}")),
        },
    }
}

/// `GET /readyz`: readiness with per-mapping availability. A mapping
/// is unavailable while quarantined (panic) or mid-migration (its
/// store files are about to be swapped); the response lists both, but
/// the daemon only answers 503 when it is draining or when *every*
/// mapping is unavailable — one quarantined tenant must not fail the
/// whole process out of a load balancer.
fn readyz(ctx: &ServerCtx) -> Response {
    if ctx.is_draining() {
        return Response::error(503, "draining", "shutting down: not accepting new work")
            .with_retry_after(1);
    }
    let mut quarantined: Vec<Json> = Vec::new();
    let mut migrating: Vec<Json> = Vec::new();
    let mut unavailable = 0usize;
    for entry in ctx.catalog.entries() {
        let poisoned = entry.is_poisoned();
        let moving = entry.is_migrating();
        if poisoned {
            quarantined.push(json!(&entry.name));
        }
        if moving {
            migrating.push(json!(&entry.name));
        }
        if poisoned || moving {
            unavailable += 1;
        }
    }
    let all_down = unavailable == ctx.catalog.len();
    let body = json!({
        "v": 1,
        "status": if all_down { "unavailable" } else { "ready" },
        "quarantined": Json::Array(quarantined),
        "migrating": Json::Array(migrating),
    });
    if all_down {
        Response::json(503, body).with_retry_after(1)
    } else {
        Response::json(200, body)
    }
}

/// `/v1/mappings/{name}/{op}` dispatch: the robustness ladder steps
/// 1–3, then per-operation execution behind the panic barrier.
fn mapping_request(method: &str, rest: &str, body: &[u8], ctx: &ServerCtx) -> Response {
    let Some((name, op)) = rest.split_once('/') else {
        return Response::error(404, "not_found", "expected /v1/mappings/{name}/{op}");
    };
    const OPS: &[&str] = &[
        "compile", "lint", "explain", "chase", "exchange", "put", "migrate",
    ];
    if !OPS.contains(&op) {
        return Response::error(
            404,
            "unknown_operation",
            format!(
                "unknown operation `{op}` (expected one of {})",
                OPS.join(", ")
            ),
        );
    }
    if method != "POST" {
        return Response::error(405, "method_not_allowed", "mapping operations are POST");
    }
    let Some(entry) = ctx.catalog.get(name) else {
        return Response::error(404, "unknown_mapping", format!("no mapping named `{name}`"));
    };
    if entry.is_poisoned() {
        return Response::error(
            503,
            "quarantined",
            "mapping quarantined after an internal panic; restart dexd to clear",
        );
    }
    // Migration quarantine: while a live migration is swapping this
    // mapping's store files, every other operation waits it out. A
    // second concurrent migration is a conflict, not a retry.
    let _migration_guard = if op == "migrate" {
        if !entry.try_begin_migration() {
            return Response::error(
                409,
                "migration_running",
                format!("mapping `{name}` already has a migration in flight"),
            )
            .with_retry_after(1);
        }
        Some(MigrationGuard(Arc::clone(entry)))
    } else {
        if entry.is_migrating() {
            return Response::error(
                503,
                "migrating",
                format!("mapping `{name}` is mid-migration; retry shortly"),
            )
            .with_retry_after(1);
        }
        None
    };
    let Some(_guard) = entry.try_begin(ctx.config.max_inflight_per_mapping) else {
        ctx.stats.note_shed_tenant();
        return Response::error(
            429,
            "tenant_overloaded",
            format!(
                "mapping `{name}` already has {} request(s) in flight",
                ctx.config.max_inflight_per_mapping
            ),
        )
        .with_retry_after(1);
    };
    let body: Json = if body.is_empty() {
        Json::Object(Map::new())
    } else {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(e) => return Response::error(400, "bad_json", format!("request body: {e}")),
        };
        match serde_json::from_str(text) {
            Ok(j) => j,
            Err(e) => return Response::error(400, "bad_json", format!("request body: {e}")),
        }
    };
    // Deterministic dispatch-layer fault injection (chaos matrix): an
    // injected error answers 500 like any internal failure; an
    // injected panic exercises the barrier below.
    if let Some(e) = fail::hit("server.dispatch") {
        ctx.stats.note_error();
        return Response::error(500, "internal", e);
    }
    // The panic barrier: a panicking operation answers 500 and
    // quarantines the mapping (the daemon's analogue of the CLI's
    // exit-70 contract), and the in-flight guard above still releases
    // its slot on unwind.
    let entry = Arc::clone(entry);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(op, &entry, &body, ctx)
    }));
    match outcome {
        Ok(resp) => resp,
        Err(_) => {
            entry.poison();
            ctx.stats.note_panic();
            Response::error(
                500,
                "panic",
                format!(
                    "internal panic while serving `{op}`; mapping `{}` quarantined",
                    entry.name
                ),
            )
        }
    }
}

/// RAII release of a mapping's migration slot: covers every exit from
/// the migrate pipeline, including a panic unwinding through the
/// request barrier.
struct MigrationGuard(Arc<CatalogEntry>);

impl Drop for MigrationGuard {
    fn drop(&mut self) {
        self.0.end_migration();
    }
}

/// Execute one operation against one catalog entry (ladder steps 4–6).
fn execute(op: &str, entry: &CatalogEntry, body: &Json, ctx: &ServerCtx) -> Response {
    match op {
        "compile" => compile_op(entry, body),
        "lint" => lint_op(entry, body),
        "explain" => explain_op(entry),
        "chase" => chase_op(entry, body, ctx),
        "exchange" => exchange_op(entry, body, ctx),
        "put" => put_op(entry, body),
        "migrate" => migrate_op(entry, body, ctx),
        // Unreachable: `mapping_request` filtered on OPS.
        other => Response::error(404, "unknown_operation", other),
    }
}

fn envelope(entry: &CatalogEntry, op: &str) -> Map<String, Json> {
    let mut m = Map::new();
    m.insert("v".into(), json!(1));
    m.insert("mapping".into(), json!(&entry.name));
    m.insert("op".into(), json!(op));
    m
}

/// Did the request body opt into the verified optimizer
/// (`{"optimize": true}`)?
fn wants_optimize(body: &Json) -> bool {
    body.get("optimize").and_then(Json::as_bool) == Some(true)
}

/// The `"optimized"` response section shared by `compile` and `lint`:
/// the verified rewrites, size change, rendered optimized mapping —
/// or the typed refusal for mappings outside the decidable fragment.
fn optimized_json(mapping: &Mapping) -> (Json, Option<Mapping>) {
    let outcome = dex_analyze::optimize(mapping);
    if let Some(reason) = &outcome.refused {
        return (json!({"refused": reason}), None);
    }
    let (a0, d0) = dex_analyze::semantic::mapping_size(mapping);
    let (a1, d1) = dex_analyze::semantic::mapping_size(&outcome.mapping);
    let rewrites: Vec<&String> = outcome.rewrites.iter().map(|r| &r.description).collect();
    let section = json!({
        "refused": Json::Null,
        "rewrites": rewrites,
        "original_size": json!({"atoms": a0, "deps": d0}),
        "optimized_size": json!({"atoms": a1, "deps": d1}),
        "mapping": dex_analyze::render_mapping_dex(&outcome.mapping),
    });
    let changed = outcome.changed();
    (section, changed.then_some(outcome.mapping))
}

fn compile_op(entry: &CatalogEntry, req: &Json) -> Response {
    let mut body = envelope(entry, "compile");
    // With {"optimize": true} the *optimized* mapping is compiled — a
    // verified-equivalent mapping can compile where the original's
    // redundant rules trip the union-lens restrictions (DEX206).
    let optimized = wants_optimize(req).then(|| optimized_json(&entry.mapping));
    let fresh_template;
    let template = match &optimized {
        Some((section, opt)) => {
            body.insert("optimized".into(), section.clone());
            match opt {
                Some(m) => match dex_core::compile(m) {
                    Ok(t) => {
                        fresh_template = t;
                        Ok(&fresh_template)
                    }
                    Err(e) => Err(e.to_string()),
                },
                // Refused or unchanged: fall back to the precompiled
                // entry.
                None => entry
                    .engine
                    .as_ref()
                    .map(|e| e.template())
                    .map_err(Clone::clone),
            }
        }
        None => entry
            .engine
            .as_ref()
            .map(|e| e.template())
            .map_err(Clone::clone),
    };
    match template {
        Ok(t) => {
            body.insert("compiled".into(), json!(true));
            body.insert(
                "holes".into(),
                Json::Array(t.holes.iter().map(|h| json!(h.to_string())).collect()),
            );
            body.insert("report".into(), json!(t.report.to_string()));
            Response::json(200, Json::Object(body))
        }
        Err(reason) => {
            body.insert("compiled".into(), json!(false));
            body.insert(
                "error".into(),
                json!({"kind": "uncompilable", "message": reason}),
            );
            Response::json(422, Json::Object(body))
        }
    }
}

fn lint_op(entry: &CatalogEntry, req: &Json) -> Response {
    let mut diags = analyze_with(&entry.mapping, Some(&entry.spans), Default::default());
    sort_diagnostics(&mut diags);
    let failed = has_errors(&diags);
    let mut body = envelope(entry, "lint");
    body.insert(
        "diagnostics".into(),
        serde_json::to_value(&diags).unwrap_or(Json::Null),
    );
    body.insert("errors".into(), json!(failed));
    if wants_optimize(req) {
        let (section, _) = optimized_json(&entry.mapping);
        body.insert("optimized".into(), section);
    }
    // Mirrors `dexcli lint`'s exit-2 contract: diagnostics are data,
    // but a mapping with errors is unprocessable.
    Response::json(if failed { 422 } else { 200 }, Json::Object(body))
}

fn explain_op(entry: &CatalogEntry) -> Response {
    let stats = SourceStats::uniform(dex_analyze::cost::DEFAULT_CARD);
    let report = explain_with(&entry.mapping, Some(&entry.spans), &stats);
    let mut body = envelope(entry, "explain");
    body.insert("plan".into(), report.to_json());
    Response::json(200, Json::Object(body))
}

/// Admit a run of the entry's mapping over `src` under the body's
/// `budget` overrides through the shared [`pipeline`]. `Err` is the
/// refusal response (400 bad override / 422 admission).
fn request_budget(
    entry: &CatalogEntry,
    src: &Instance,
    body: &Json,
    ctx: &ServerCtx,
) -> Result<Budget, Response> {
    let requested = budget_overrides(body)?;
    match ctx.config.policy().admit(&entry.mapping, src, requested) {
        Ok(admitted) => Ok(admitted.budget),
        Err(refused) => Err(admission_refused(entry, &refused, ctx)),
    }
}

/// The 422 answer to a DEX502 refusal, with the predicted bounds as
/// evidence.
fn admission_refused(entry: &CatalogEntry, r: &Refused, ctx: &ServerCtx) -> Response {
    ctx.stats.note_refused();
    let mut resp = envelope(entry, "admission");
    resp.insert(
        "error".into(),
        json!({
            "kind": "admission_refused",
            "message": format!(
                "DEX502: predicted chase cost {} exceeds the server's \
                 deny-cost ceiling {}; refusing before chasing",
                r.headline, r.threshold
            ),
        }),
    );
    resp.insert(
        "predicted".into(),
        serde_json::to_value(&r.bounds).unwrap_or(Json::Null),
    );
    Response::json(422, Json::Object(resp))
}

/// Parse the request's `budget` override object (400 on bad shape).
fn budget_overrides(body: &Json) -> Result<Budget, Response> {
    let mut args = BudgetArgs::new();
    if let Some(overrides) = body.get("budget") {
        let Some(obj) = overrides.as_object() else {
            return Err(Response::error(
                400,
                "bad_budget",
                "`budget` must be an object",
            ));
        };
        for (key, value) in obj {
            let text = match value {
                Json::String(s) => s.clone(),
                Json::Number(n) => n.to_string(),
                other => {
                    return Err(Response::error(
                        400,
                        "bad_budget",
                        format!("budget.{key}: expected a string or number, got {other}"),
                    ))
                }
            };
            if let Err(e) = args.set(key, &text) {
                return Err(Response::error(400, "bad_budget", e));
            }
        }
    }
    Ok(args.budget())
}

/// Pull the `source` instance out of the body.
fn source_of(entry: &CatalogEntry, body: &Json) -> Result<Instance, Response> {
    let Some(src) = body.get("source") else {
        return Err(Response::error(
            400,
            "bad_request",
            "missing `source` instance",
        ));
    };
    instance_from_json(src, entry.mapping.source())
        .map_err(|e| Response::error(400, "bad_instance", format!("source: {e}")))
}

fn chase_op(entry: &CatalogEntry, body: &Json, ctx: &ServerCtx) -> Response {
    let src = match source_of(entry, body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let budget = match request_budget(entry, &src, body, ctx) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let gov = Governor::new(budget).with_cancel(ctx.drain_cancel.clone());
    let persist = body.get("persist").and_then(Json::as_bool).unwrap_or(false);
    let (mut store, mut store_dir) = (None, None);
    if persist {
        let Some(root) = &ctx.config.store_root else {
            return Response::error(
                400,
                "no_store_root",
                "persist requested but the server has no --store-root",
            );
        };
        let dir = root
            .join(&entry.name)
            .join(format!("run-{}", entry.next_store_seq()));
        let opts = StoreOptions::default();
        match Store::create(&dir, StoreMode::Chase, &entry.text, &src, opts) {
            Ok(s) => store = Some(s),
            Err(e) => return Response::error(500, "store", e),
        }
        store_dir = Some(dir);
    }
    let outcome = pipeline::chase(&entry.mapping, &src, &gov, store.as_mut());
    let mut resp = envelope(entry, "chase");
    if let Some(dir) = store_dir {
        resp.insert("store".into(), json!(dir.display().to_string()));
    }
    match outcome {
        Ok(ChaseOutcome::Complete(res)) => {
            resp.insert(
                "stats".into(),
                serde_json::to_value(&res.stats).unwrap_or(Json::Null),
            );
            Response::rendered(200, splice_instance(&resp, "target", &res.target))
        }
        Ok(ChaseOutcome::Exhausted(ex)) => {
            ctx.stats.note_partial();
            resp.insert(
                "exhausted".into(),
                serde_json::to_value(&ex.report).unwrap_or(Json::Null),
            );
            resp.insert(
                "stats".into(),
                serde_json::to_value(&ex.stats).unwrap_or(Json::Null),
            );
            Response::rendered(206, splice_instance(&resp, "partial", &ex.partial))
        }
        Err(e) => {
            ctx.stats.note_error();
            Response::error(500, "chase", e)
        }
    }
}

fn exchange_op(entry: &CatalogEntry, body: &Json, ctx: &ServerCtx) -> Response {
    let engine = match &entry.engine {
        Ok(e) => e,
        Err(reason) => return Response::error(422, "uncompilable", reason),
    };
    let src = match source_of(entry, body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let prev = match body.get("prev") {
        Some(p) => match instance_from_json(p, entry.mapping.target()) {
            Ok(i) => Some(i),
            Err(e) => return Response::error(400, "bad_instance", format!("prev: {e}")),
        },
        None => None,
    };
    let budget = match request_budget(entry, &src, body, ctx) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let gov = Governor::new(budget).with_cancel(ctx.drain_cancel.clone());
    let mut resp = envelope(entry, "exchange");
    match engine.forward_governed(&src, prev.as_ref(), &gov) {
        Ok(EngineForward::Complete { target, .. }) => {
            Response::rendered(200, splice_instance(&resp, "target", &target))
        }
        Ok(EngineForward::Exhausted { partial, report }) => {
            ctx.stats.note_partial();
            resp.insert(
                "exhausted".into(),
                serde_json::to_value(&report).unwrap_or(Json::Null),
            );
            Response::rendered(206, splice_instance(&resp, "partial", &partial))
        }
        Err(e) => {
            ctx.stats.note_error();
            Response::error(500, "exchange", e)
        }
    }
}

fn put_op(entry: &CatalogEntry, body: &Json) -> Response {
    let engine = match &entry.engine {
        Ok(e) => e,
        Err(reason) => return Response::error(422, "uncompilable", reason),
    };
    let Some(tgt) = body.get("target") else {
        return Response::error(400, "bad_request", "missing `target` instance");
    };
    let tgt = match instance_from_json(tgt, entry.mapping.target()) {
        Ok(i) => i,
        Err(e) => return Response::error(400, "bad_instance", format!("target: {e}")),
    };
    let src = match source_of(entry, body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let resp = envelope(entry, "put");
    match engine.backward(&tgt, &src) {
        Ok(new_source) => Response::rendered(200, splice_instance(&resp, "source", &new_source)),
        // A put the lens refuses (violated fd, unrestorable row) is a
        // client-data problem, not a server fault.
        Err(e) => Response::error(422, "put_rejected", e),
    }
}

/// `POST /v1/mappings/{name}/migrate`: crash-safe live schema
/// migration of one of this mapping's persisted stores.
///
/// Body: `{"run": "run-0", "schema": "target T(a, b, c);",
/// "resume": bool?, "budget": {…}?}`. While the migration runs the
/// mapping is quarantined (other operations answer 503 — the caller
/// set that up in `mapping_request`); the slot is released whether the
/// migration commits, suspends, or fails, because a suspended
/// migration's staging is durable on disk and the live store stays
/// authoritative. The status contract mirrors the rest of the daemon:
/// 200 committed, 206 suspended at a resumable checkpoint (budget or
/// drain cancellation — a SIGTERM mid-migration lands here), 400/404
/// client errors, 409 conflicting state, 422 refused before data was
/// touched, 500 store fault.
fn migrate_op(entry: &CatalogEntry, body: &Json, ctx: &ServerCtx) -> Response {
    let Some(root) = &ctx.config.store_root else {
        return Response::error(
            400,
            "no_store_root",
            "migrate requires the server to run with --store-root",
        );
    };
    let Some(run) = body.get("run").and_then(Json::as_str) else {
        return Response::error(400, "bad_request", "missing `run` (store directory name)");
    };
    if run.is_empty()
        || run.len() > 128
        || !run
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        || run == "."
        || run == ".."
    {
        return Response::error(400, "bad_run", "`run` must name a store directory");
    }
    let dir = root.join(&entry.name).join(run);
    let opts = StoreOptions::default();
    let mut resp = envelope(entry, "migrate");
    resp.insert("run".into(), json!(run));
    let requested = match budget_overrides(body) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let policy = ctx.config.policy();

    if body.get("resume").and_then(Json::as_bool).unwrap_or(false) {
        return match store_migrate::status(&dir) {
            Err(e) => Response::error(500, "store", e),
            Ok(MigrateStatus::None) => Response::error(
                409,
                "nothing_staged",
                format!("run `{run}` has no staged migration to resume"),
            ),
            Ok(MigrateStatus::Committed) => match store_migrate::roll_forward(&dir, opts.sync) {
                Ok(_) => {
                    resp.insert("committed".into(), json!(true));
                    resp.insert("rolled_forward".into(), json!(true));
                    Response::json(200, Json::Object(resp))
                }
                Err(e) => Response::error(500, "store", e),
            },
            Ok(MigrateStatus::InProgress { .. }) => match Migration::resume(&dir, opts) {
                Ok(mig) => run_staged(mig, resp, run, policy.budget(requested), ctx),
                Err(e) => Response::error(500, "store", e),
            },
        };
    }

    let Some(schema_text) = body.get("schema").and_then(Json::as_str) else {
        return Response::error(
            400,
            "bad_request",
            "missing `schema` (new-schema .dex text)",
        );
    };
    let plan = match pipeline::plan_migration(&dir, opts, schema_text, &policy, requested, false) {
        Ok(p) => p,
        Err(refusal) => {
            return match refusal {
                MigrateRefusal::Staged => Response::error(
                    409,
                    "migration_staged",
                    format!("run `{run}` already has a staged migration; resume it"),
                ),
                MigrateRefusal::BadSchema(e) => {
                    Response::error(400, "bad_schema", format!("schema: {e}"))
                }
                MigrateRefusal::SchemaHasRules => Response::error(
                    400,
                    "bad_schema",
                    "`schema` must hold only declarations (target/key); it contains rules",
                ),
                MigrateRefusal::NoStore(_) => {
                    Response::error(404, "unknown_run", format!("no store at run `{run}`"))
                }
                MigrateRefusal::Unfinished { .. } => Response::error(
                    409,
                    "unfinished_run",
                    format!("run `{run}` holds an unfinished chase; resume it before migrating"),
                ),
                MigrateRefusal::CannotMigrate(e) => Response::error(422, "cannot_migrate", e),
                MigrateRefusal::Admission(r) => admission_refused(entry, &r, ctx),
                MigrateRefusal::Prefix(e) => Response::error(500, "migrate", e),
                MigrateRefusal::Store(e) => Response::error(500, "store", e),
            }
        }
    };
    resp.insert(
        "smos".into(),
        Json::Array(
            plan.migration
                .smos
                .iter()
                .map(|s| json!(s.to_string()))
                .collect(),
        ),
    );
    let budget = plan.admitted.budget;
    match plan.begin(&dir, opts) {
        Ok(mig) => run_staged(mig, resp, run, budget, ctx),
        Err(e) => Response::error(500, "store", e),
    }
}
/// Drive a staged migration to commit (200) or a durable, resumable
/// checkpoint (206). The drain [`CancelToken`] rides the governor, so
/// daemon shutdown suspends the migration exactly like a budget trip —
/// the staging directory survives and a later `resume: true` request
/// (or `dexcli migrate --resume` against the same directory) finishes
/// it with bit-identical results.
fn run_staged(
    mut mig: Migration,
    mut resp: Map<String, Json>,
    run: &str,
    budget: Budget,
    ctx: &ServerCtx,
) -> Response {
    let gov = Governor::new(budget).with_cancel(ctx.drain_cancel.clone());
    match pipeline::run_migration(&mut mig, &gov) {
        Err(e) => {
            ctx.stats.note_error();
            Response::error(500, "migrate", e)
        }
        Ok(MigrateRun::Done(state)) => {
            resp.insert("committed".into(), json!(true));
            resp.insert("tuples".into(), json!(state.instance.fact_count()));
            Response::json(200, Json::Object(resp))
        }
        Ok(MigrateRun::Suspended(report)) => {
            ctx.stats.note_partial();
            resp.insert("committed".into(), json!(false));
            resp.insert("resumable".into(), json!(true));
            resp.insert(
                "hint".into(),
                json!(format!(
                    "staging is durable and the live store untouched; \
                     POST again with {{\"run\": \"{run}\", \"resume\": true}}"
                )),
            );
            resp.insert(
                "exhausted".into(),
                serde_json::to_value(&report).unwrap_or(Json::Null),
            );
            Response::json(206, Json::Object(resp))
        }
    }
}
