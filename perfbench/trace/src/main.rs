//! Traced in-process replica of the end-to-end benchmark's operations.
//!
//! Each subcommand does what one `dexcli` process of the benchmark does
//! (or, for `serve`, what `dexd` does for the serve-mix requests), by
//! calling the same public functions of the workspace crates, and times
//! every call into a layer:
//!
//! ```text
//! dexbench-trace chase    <mapping.dex> <source.json> <out.json> [--store <dir>] [--max-rounds <n>]
//! dexbench-trace exchange <mapping.dex> <source.json> <out.json>
//! dexbench-trace resume   <store-dir> <out.json>
//! dexbench-trace migrate  <store-dir> <schema.dex>
//! dexbench-trace fsck     <store-dir>
//! dexbench-trace serve    <bodies.json> <store-root> <seconds> <name=mapping.dex>…
//! ```
//!
//! It prints one JSON object on stdout: the in-process wall time, the
//! seconds spent in each layer (`spans`), layer counters (`counts`) and,
//! for chase and exchange runs, the stats object in the wire form
//! `dexcli --stats --format json` prints, so the benchmark can check the
//! traced run's counters against the untraced process's.

use dex::analyze::chase_bounds;
use dex::chase::{
    exchange_checkpointed, resume_exchange, Budget, ChaseOptions, ChaseOutcome, Checkpoint,
    CheckpointSink, Governor, ResumeState,
};
use dex::core::{compile, Engine, EngineForward, ForwardStats};
use dex::evolution::{
    compile_migration_checked, diff, prefix_instance, render_mapping_dex, render_schema_dex,
    Catalog,
};
use dex::logic::{parse_mapping, Mapping};
use dex::relational::budget_args::BudgetArgs;
use dex::relational::{Instance, SourceStats};
use dex::rellens::Environment;
use dex::store::wal::{encode_record, WalRecord};
use dex::store::{
    fsck, ChaseState, MigratePlan, MigrateRun, Migration, Store, StoreMode, StoreOptions, StoreSink,
};
use dexd::handlers::route;
use dexd::json::{instance_from_json, instance_to_json};
use dexd::{Request, ServerConfig, ServerHandle};
use serde_json::{json, Map, Value as Json};
use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

type Res<T> = Result<T, String>;

/// Per-layer seconds and counters of one traced operation.
#[derive(Default)]
struct Trace {
    spans: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Run `f`, charging its wall time to `layer`.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.span(layer, t.elapsed().as_secs_f64());
        out
    }

    fn span(&mut self, layer: &'static str, secs: f64) {
        *self.spans.entry(layer).or_default() += secs;
    }

    fn count(&mut self, counter: &'static str, n: f64) {
        *self.counts.entry(counter).or_default() += n;
    }

    fn json(&self) -> Json {
        let obj = |m: &BTreeMap<&str, f64>| {
            let mut out = Map::new();
            for (k, v) in m {
                out.insert((*k).to_string(), json!(*v));
            }
            Json::Object(out)
        };
        json!({ "spans": obj(&self.spans), "counts": obj(&self.counts) })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dexbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Res<Json> {
    let arg = |i: usize| -> Res<&str> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument {i}; see the module docs for usage"))
    };
    let flag = |name: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == name)?;
        args.get(i + 1).map(String::as_str)
    };
    let start = Instant::now();
    let mut trace = Trace::default();
    let mut out: Json = match arg(0)? {
        "chase" => chase_cmd(
            &mut trace,
            arg(1)?,
            arg(2)?,
            arg(3)?,
            flag("--store"),
            flag("--max-rounds"),
        )?,
        "exchange" => exchange_cmd(&mut trace, arg(1)?, arg(2)?, arg(3)?)?,
        "resume" => resume_cmd(&mut trace, Path::new(arg(1)?), arg(2)?)?,
        "migrate" => migrate_cmd(&mut trace, Path::new(arg(1)?), arg(2)?)?,
        "fsck" => {
            let report = trace.time("store.fsck_s", || {
                fsck::fsck(Path::new(arg(1)?))
                    .map(|r| (r.is_clean(), r.to_string()))
                    .map_err(|e| e.to_string())
            })?;
            json!({ "clean": report.0, "report": report.1 })
        }
        "serve" => return serve_cmd(arg(1)?, Path::new(arg(2)?), arg(3)?, &args[4..]),
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    let wall = start.elapsed().as_secs_f64();
    let Json::Object(obj) = &mut out else {
        return Err("internal: result is not an object".into());
    };
    obj.insert("wall_s".into(), json!(wall));
    obj.insert("trace".into(), trace.json());
    Ok(out)
}

fn read(path: &str) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn parse(trace: &mut Trace, text: &str) -> Res<Mapping> {
    trace.time("logic.parse_s", || {
        parse_mapping(text).map_err(|e| e.to_string())
    })
}

/// Parse a JSON instance the way `dexcli` reads a source file: the
/// vendored `serde_json` parser, then the instance codec.
fn decode(
    trace: &mut Trace,
    text: &str,
    mapping_schema: &dex::relational::Schema,
) -> Res<Instance> {
    trace.count("json.parse_bytes", text.len() as f64);
    let json: Json = trace.time("json.parse_s", || {
        serde_json::from_str(text).map_err(|e| e.to_string())
    })?;
    trace.time("relational.decode_s", || {
        instance_from_json(&json, mapping_schema)
    })
}

/// Render an instance the way `dexcli` prints one, and write it out.
fn encode_to(trace: &mut Trace, inst: &Instance, path: &str) -> Res<()> {
    let text = trace.time("json.encode_s", || {
        serde_json::to_string_pretty(&instance_to_json(inst)).map_err(|e| e.to_string())
    })?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

/// Static-cost admission: source statistics and the chase bounds.
fn admit(trace: &mut Trace, m: &Mapping, src: &Instance) -> Json {
    trace.time("analyze.admit_s", || {
        let bounds = chase_bounds(m, &SourceStats::measure(src));
        serde_json::to_value(&bounds).unwrap_or(Json::Null)
    })
}

/// A checkpoint sink that splits a chase's time into phase 1 (up to the
/// round-0 checkpoint) and phase 2, and times the store's write path
/// when it persists into a [`Store`]. Work the sink does for the
/// benchmark's own accounting is excluded from both.
struct TimedSink<'a> {
    store: Option<StoreSink<'a>>,
    dir: Option<PathBuf>,
    phase1_end: Option<Instant>,
    store_s: f64,
    own_s: f64,
    snapshot_ino: u64,
    wal_records: u64,
    wal_bytes: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    final_snapshot_bytes: u64,
}

impl<'a> TimedSink<'a> {
    fn new(store: Option<&'a mut Store>) -> Self {
        let dir = store.as_ref().map(|s| s.dir().to_path_buf());
        let mut sink = TimedSink {
            store: store.map(StoreSink::new),
            dir,
            phase1_end: None,
            store_s: 0.0,
            own_s: 0.0,
            snapshot_ino: 0,
            wal_records: 0,
            wal_bytes: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            final_snapshot_bytes: 0,
        };
        sink.snapshot_ino = sink.snapshot_meta().map_or(0, |(ino, _)| ino);
        sink
    }

    fn snapshot_meta(&self) -> Option<(u64, u64)> {
        let dir = self.dir.as_ref()?;
        let meta = std::fs::metadata(dir.join(dex::store::snapshot::SNAPSHOT_FILE)).ok()?;
        Some((meta.ino(), meta.len()))
    }

    /// Count a snapshot if the file was replaced since the last look
    /// (snapshots are written to a temporary file and renamed over).
    fn note_snapshot(&mut self) {
        if let Some((ino, len)) = self.snapshot_meta() {
            if ino != self.snapshot_ino {
                self.snapshot_ino = ino;
                self.snapshots += 1;
                self.snapshot_bytes += len;
            }
        }
    }

    /// Fold the sink's store counters and store time into `trace`.
    fn finish(self, trace: &mut Trace) {
        trace.span("store.checkpoint_s", self.store_s);
        trace.count("store.wal_records", self.wal_records as f64);
        trace.count("store.wal_bytes", self.wal_bytes as f64);
        trace.count("store.snapshots", self.snapshots as f64);
        trace.count("store.snapshot_bytes", self.snapshot_bytes as f64);
        trace.count(
            "store.final_snapshot_bytes",
            self.final_snapshot_bytes as f64,
        );
    }
}

impl CheckpointSink for TimedSink<'_> {
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
        let entered = Instant::now();
        if cp.round == 0 && self.phase1_end.is_none() {
            self.phase1_end = Some(entered);
        }
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        // Every checkpoint except the phase-1 output and the fixpoint is
        // a WAL append (`Store::record_checkpoint`); size the record the
        // same way the store encodes it.
        let complete = cp.complete;
        let appended = (cp.round != 0 && !complete).then(|| {
            let rec = match &cp.delta {
                Some(batches) => WalRecord::Delta {
                    round: cp.round,
                    next_null: cp.next_null,
                    batches: batches.clone(),
                },
                None => WalRecord::Full {
                    round: cp.round,
                    next_null: cp.next_null,
                    instance: cp.target.clone(),
                },
            };
            encode_record(&rec).len() as u64
        });
        let t = Instant::now();
        let result = store.on_checkpoint(cp);
        let done = Instant::now();
        self.store_s += (done - t).as_secs_f64();
        if let Some(bytes) = appended {
            self.wal_records += 1;
            self.wal_bytes += bytes;
        }
        self.note_snapshot();
        if complete {
            self.final_snapshot_bytes += self.snapshot_meta().map_or(0, |(_, len)| len);
        }
        self.own_s += (t - entered).as_secs_f64() + done.elapsed().as_secs_f64();
        result
    }
}

/// Chase time split by phase: phase 1 up to the round-0 checkpoint, then
/// phase 2, charged to `chase.egd_s` when the mapping's target
/// dependencies are egds only (its phase 2 is all egd work) and to
/// `chase.rounds_s` otherwise.
fn chase_spans(trace: &mut Trace, m: &Mapping, started: Instant, sink: &TimedSink<'_>) {
    let total = started.elapsed().as_secs_f64() - sink.store_s - sink.own_s;
    let phase1 = sink.phase1_end.map_or(0.0, |t| (t - started).as_secs_f64());
    trace.span("chase.phase1_s", phase1);
    let phase2 = (total - phase1).max(0.0);
    if m.target_tgds().is_empty() && !m.target_egds().is_empty() {
        trace.span("chase.egd_s", phase2);
    } else {
        trace.span("chase.rounds_s", phase2);
    }
}

/// Print a chase outcome's instance as `dexcli` does (a budget-stopped
/// run prints its partial instance) and report its stats and counters.
fn finish_chase(trace: &mut Trace, outcome: &ChaseOutcome, out: &str) -> Res<Json> {
    let instance = match outcome {
        ChaseOutcome::Complete(res) => &res.target,
        ChaseOutcome::Exhausted(ex) => &ex.partial,
    };
    encode_to(trace, instance, out)?;
    Ok(json!({ "stats": chase_counts(trace, outcome) }))
}

/// `dexcli chase <mapping> <source> [--store <dir>] [--max-rounds <n>]`.
fn chase_cmd(
    trace: &mut Trace,
    mapping: &str,
    source: &str,
    out: &str,
    store_dir: Option<&str>,
    max_rounds: Option<&str>,
) -> Res<Json> {
    let text = read(mapping)?;
    let m = parse(trace, &text)?;
    let src_text = read(source)?;
    let src = decode(trace, &src_text, m.source())?;
    admit(trace, &m, &src);
    let mut budget = BudgetArgs::new();
    if let Some(n) = max_rounds {
        budget.set("max-rounds", n)?;
    }
    let gov = Governor::new(budget.budget());
    let mut store = match store_dir {
        Some(dir) => Some(trace.time("store.checkpoint_s", || {
            Store::create(
                Path::new(dir),
                StoreMode::Chase,
                &text,
                &src,
                StoreOptions::default(),
            )
            .map_err(|e| e.to_string())
        })?),
        None => None,
    };
    let mut sink = TimedSink::new(store.as_mut());
    let started = Instant::now();
    let outcome = exchange_checkpointed(&m, &src, ChaseOptions::default(), &gov, &mut sink)
        .map_err(|e| e.to_string())?;
    chase_spans(trace, &m, started, &sink);
    sink.finish(trace);
    finish_chase(trace, &outcome, out)
}

/// `dexcli exchange <mapping> <source>`: the lens engine.
fn exchange_cmd(trace: &mut Trace, mapping: &str, source: &str, out: &str) -> Res<Json> {
    let text = read(mapping)?;
    let m = parse(trace, &text)?;
    let src_text = read(source)?;
    let src = decode(trace, &src_text, m.source())?;
    admit(trace, &m, &src);
    let engine = trace.time("core.compile_s", || {
        let template = compile(&m).map_err(|e| e.to_string())?;
        Engine::new(template, Environment::new()).map_err(|e| e.to_string())
    })?;
    let gov = Governor::new(Budget::unlimited());
    let forward = trace.time("core.forward_s", || {
        engine
            .forward_governed(&src, None, &gov)
            .map_err(|e| e.to_string())
    })?;
    let EngineForward::Complete { target, stats } = forward else {
        return Err("unbudgeted forward pass stopped early".into());
    };
    forward_counts(trace, &stats);
    encode_to(trace, &target, out)?;
    Ok(json!({ "stats": forward_stats_json(&stats) }))
}

fn forward_counts(trace: &mut Trace, stats: &ForwardStats) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for r in &stats.per_relation {
        trace.count("core.get_ms", ms(r.get_time));
        trace.count("core.put_ms", ms(r.put_time));
    }
    trace.count("core.egd_ms", ms(stats.egd_time));
}

/// The deterministic part of `dexcli exchange --stats --format json`'s
/// stats object (everything but the times).
fn forward_stats_json(stats: &ForwardStats) -> Json {
    let per_relation: Vec<Json> = stats
        .per_relation
        .iter()
        .map(|r| json!({ "relation": r.relation.as_str(), "view_rows": r.view_rows }))
        .collect();
    json!({
        "per_relation": per_relation,
        "egd_rounds": stats.egd_rounds,
        "egd_merges": stats.egd_merges,
        "index_builds": stats.index_builds,
        "index_probes": stats.index_probes,
    })
}

/// `dexcli resume <dir>` on a store holding an unfinished chase.
fn resume_cmd(trace: &mut Trace, dir: &Path, out: &str) -> Res<Json> {
    let (mut store, recovered) = trace.time("store.recover_s", || {
        let store = Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
        let recovered = store.recover().map_err(|e| e.to_string())?;
        Ok::<_, String>((store, recovered))
    })?;
    let r = recovered.ok_or("store has no checkpoint to resume from")?;
    if r.state.complete {
        return Err("store already holds a completed chase".into());
    }
    let text = store.mapping_text().to_string();
    let m = parse(trace, &text)?;
    trace.time("store.checkpoint_s", || {
        store.prepare_resume(&r.state).map_err(|e| e.to_string())
    })?;
    let state = ResumeState {
        target: r.state.instance,
        next_null: r.state.next_null,
        rounds: r.state.round,
    };
    let gov = Governor::new(Budget::unlimited());
    let mut sink = TimedSink::new(Some(&mut store));
    // prepare_resume's snapshot is a store write of this step too.
    sink.snapshot_ino = 0;
    sink.note_snapshot();
    let started = Instant::now();
    let outcome = resume_exchange(&m, state, ChaseOptions::default(), &gov, Some(&mut sink))
        .map_err(|e| e.to_string())?;
    chase_spans(trace, &m, started, &sink);
    sink.finish(trace);
    finish_chase(trace, &outcome, out)
}

/// `dexcli migrate <dir> <schema.dex>` on a completed chase store.
fn migrate_cmd(trace: &mut Trace, dir: &Path, schema_path: &str) -> Res<Json> {
    let opts = StoreOptions::default();
    let state: ChaseState = trace.time("store.recover_s", || {
        let store = Store::open(dir, opts).map_err(|e| e.to_string())?;
        match store.recover().map_err(|e| e.to_string())? {
            Some(r) if r.state.complete => Ok(r.state),
            _ => Err("store does not hold a completed chase".to_string()),
        }
    })?;
    let new_m = parse(trace, &read(schema_path)?)?;
    let (migration, prefixed, plan) = trace.time("evolution.plan_s", || {
        let old_schema = state.instance.schema().clone();
        let mut new_schema = new_m.target().clone();
        for rel in new_m.source().relations() {
            new_schema
                .add_relation(rel.clone())
                .map_err(|e| e.to_string())?;
        }
        let smos = diff(
            &Catalog::from_schema(&old_schema),
            &Catalog::from_schema(&new_schema),
        )
        .map_err(|e| e.to_string())?;
        let migration = compile_migration_checked(&old_schema, &new_schema, &smos, false)
            .map_err(|e| e.to_string())?;
        let prefixed = prefix_instance(&state.instance, 0).map_err(|e| e.to_string())?;
        let plan = MigratePlan {
            schema_text: render_schema_dex(&new_schema),
            mapping_text: render_mapping_dex(&migration.mapping),
        };
        Ok::<_, String>((migration, prefixed, plan))
    })?;
    admit(trace, &migration.mapping, &prefixed);
    let gov = Governor::new(Budget::unlimited());
    let (mut mig, run) = trace.time("migrate.run_s", || {
        let mut mig = Migration::begin(dir, &plan, &prefixed, opts).map_err(|e| e.to_string())?;
        let run = mig
            .run(ChaseOptions::default(), &gov)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((mig, run))
    })?;
    let MigrateRun::Done(done) = run else {
        return Err("unbudgeted migration suspended".into());
    };
    trace.time("migrate.commit_s", || {
        mig.finalize().map_err(|e| e.to_string())
    })?;
    Ok(json!({ "tuples": done.instance.fact_count() }))
}

/// The four serve-mix request kinds: (kind, mapping, operation).
const KINDS: [(&str, &str, &str); 4] = [
    ("copy", "copy", "chase"),
    ("exchange", "emp", "exchange"),
    ("put", "emp", "put"),
    ("persist", "reach", "chase"),
];

/// The serve-mix requests in process, in rotations until `seconds` have
/// passed (at least one). Each rotation sends the four
/// request kinds through `handlers::route` on a live `ServerHandle`
/// (timed whole), then repeats each request's work layer by layer with
/// the same public functions the handlers call.
fn serve_cmd(bodies_path: &str, store_root: &Path, seconds: &str, maps: &[String]) -> Res<Json> {
    let seconds: f64 = seconds
        .parse()
        .map_err(|_| format!("bad duration `{seconds}`"))?;
    let bodies: Json =
        serde_json::from_str(&read(bodies_path)?).map_err(|e| format!("{bodies_path}: {e}"))?;
    let mut texts: BTreeMap<String, String> = BTreeMap::new();
    for spec in maps {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("expected name=mapping.dex, got `{spec}`"))?;
        texts.insert(name.to_string(), read(path)?);
    }
    let specs: Vec<(&String, &String)> = texts.iter().collect();
    let catalog = dexd::Catalog::from_texts(&specs)?;
    let config = ServerConfig {
        workers: 2,
        store_root: Some(store_root.join("route")),
        ..ServerConfig::default()
    };
    let handle = ServerHandle::spawn(config, catalog).map_err(|e| e.to_string())?;
    let mut mappings: BTreeMap<&str, Mapping> = BTreeMap::new();
    let mut engines: BTreeMap<&str, Engine> = BTreeMap::new();
    for (name, text) in &texts {
        let m = parse_mapping(text).map_err(|e| e.to_string())?;
        if let Ok(t) = compile(&m) {
            if let Ok(e) = Engine::new(t, Environment::new()) {
                engines.insert(name.as_str(), e);
            }
        }
        mappings.insert(name.as_str(), m);
    }

    let mut route_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut iterations = Vec::new();
    let mut failures = Vec::new();
    let begun = Instant::now();
    let mut i = 0;
    while i == 0 || begun.elapsed().as_secs_f64() < seconds {
        let mut trace = Trace::default();
        let start = Instant::now();
        for (kind, mapping, op) in KINDS {
            let variants = bodies[kind].as_array().ok_or("bodies lack a kind")?;
            let body = &variants[i % variants.len()];
            let text = serde_json::to_string(body).map_err(|e| e.to_string())?;
            let req = Request {
                method: "POST".into(),
                path: format!("/v1/mappings/{mapping}/{op}"),
                body: text.clone().into_bytes(),
            };
            let t = Instant::now();
            let resp = route(&req, handle.ctx());
            route_ms
                .entry(kind)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3);
            if resp.status != 200 {
                failures.push(format!("{kind}: status {}", resp.status));
            }
            let m = &mappings[mapping];
            let dir = store_root.join(format!("layers/run-{i}"));
            let call = Call {
                kind,
                mapping: m,
                mapping_text: &texts[mapping],
                engine: engines.get(mapping),
            };
            if let Err(e) = request_layers(&mut trace, &call, &text, &dir) {
                failures.push(format!("{kind}: {e}"));
            }
        }
        iterations.push(json!({
            "wall_s": start.elapsed().as_secs_f64(),
            "trace": trace.json(),
        }));
        i += 1;
    }
    handle.shutdown();
    let mut medians = Map::new();
    for (k, v) in route_ms.iter_mut() {
        medians.insert((*k).to_string(), json!(median(v)));
    }
    Ok(json!({
        "route_ms": Json::Object(medians),
        "iterations": iterations,
        "failures": failures,
    }))
}

/// One serve-mix request kind against its catalog mapping.
struct Call<'a> {
    kind: &'a str,
    mapping: &'a Mapping,
    mapping_text: &'a str,
    engine: Option<&'a Engine>,
}

/// One serve-mix request's work, layer by layer: body parse, instance
/// decode, admission, the operation, response encode.
fn request_layers(trace: &mut Trace, call: &Call<'_>, body_text: &str, dir: &Path) -> Res<()> {
    let m = call.mapping;
    trace.count("json.parse_bytes", body_text.len() as f64);
    let body: Json = trace.time("json.parse_s", || {
        serde_json::from_str(body_text).map_err(|e| e.to_string())
    })?;
    let src = trace.time("relational.decode_s", || {
        instance_from_json(&body["source"], m.source())
    })?;
    let engine = || {
        call.engine
            .ok_or_else(|| "mapping does not compile".to_string())
    };
    let result: Instance = match call.kind {
        "put" => {
            let tgt = trace.time("relational.decode_s", || {
                instance_from_json(&body["target"], m.target())
            })?;
            let engine = engine()?;
            trace.time("core.backward_s", || {
                engine.backward(&tgt, &src).map_err(|e| e.to_string())
            })?
        }
        "exchange" => {
            admit(trace, m, &src);
            let engine = engine()?;
            let gov = Governor::new(Budget::unlimited());
            let forward = trace.time("core.forward_s", || {
                engine
                    .forward_governed(&src, None, &gov)
                    .map_err(|e| e.to_string())
            })?;
            let EngineForward::Complete { target, stats } = forward else {
                return Err("forward pass stopped early".into());
            };
            forward_counts(trace, &stats);
            target
        }
        _ => {
            admit(trace, m, &src);
            let gov = Governor::new(Budget::unlimited());
            let mut store = if call.kind == "persist" {
                Some(trace.time("store.checkpoint_s", || {
                    Store::create(
                        dir,
                        StoreMode::Chase,
                        call.mapping_text,
                        &src,
                        StoreOptions::default(),
                    )
                    .map_err(|e| e.to_string())
                })?)
            } else {
                None
            };
            let mut sink = TimedSink::new(store.as_mut());
            let started = Instant::now();
            let outcome = exchange_checkpointed(m, &src, ChaseOptions::default(), &gov, &mut sink)
                .map_err(|e| e.to_string())?;
            chase_spans(trace, m, started, &sink);
            sink.finish(trace);
            chase_counts(trace, &outcome);
            match outcome {
                ChaseOutcome::Complete(res) => res.target,
                ChaseOutcome::Exhausted(_) => return Err("chase stopped early".into()),
            }
        }
    };
    trace.time("json.encode_s", || {
        serde_json::to_string(&instance_to_json(&result)).map_err(|e| e.to_string())
    })?;
    Ok(())
}

/// Record a chase outcome's counters; returns its stats in the wire
/// form `dexcli --stats --format json` prints.
fn chase_counts(trace: &mut Trace, outcome: &ChaseOutcome) -> Json {
    let (stats, firings) = match outcome {
        ChaseOutcome::Complete(res) => (&res.stats, Some(res.firings)),
        ChaseOutcome::Exhausted(ex) => (&ex.stats, None),
    };
    let target: usize = stats.firings_per_round.iter().sum();
    trace.count("chase.st_firings", stats.st_firings as f64);
    trace.count("chase.rounds", stats.firings_per_round.len() as f64);
    trace.count("chase.target_firings", target as f64);
    let delta: usize = stats.delta_sizes.iter().sum();
    trace.count("chase.delta_tuples", delta as f64);
    trace.count("chase.index_probes", stats.index_probes as f64);
    trace.count("chase.index_builds", stats.index_builds as f64);
    // A completed run's firings are st + target firings + egd merges.
    if let Some(all) = firings {
        let merges = all.saturating_sub(stats.st_firings + target);
        trace.count("chase.egd_merges", merges as f64);
    }
    serde_json::to_value(stats).unwrap_or(Json::Null)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
