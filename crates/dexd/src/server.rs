//! The daemon core: listener, bounded queue, worker pool, graceful
//! drain.
//!
//! Architecture (all `std::net` + scoped threads; no async runtime):
//!
//! ```text
//!   acceptor ──try_push──▶ bounded queue ──pop──▶ N workers
//!      │                        │
//!      │ full → 429 shed        │ closed + empty → worker exits
//!      │ draining → 503         │
//!      └── shutdown flag ───────┴── drain deadline → cancel token
//! ```
//!
//! The queue is the back-pressure point: when all workers are busy and
//! [`ServerConfig::queue_capacity`] connections are already waiting,
//! the *acceptor* answers `429 Too Many Requests` with `Retry-After`
//! and closes — shedding costs one header write, never a worker. On
//! shutdown the acceptor stops accepting (new connections get an
//! immediate `503`), queued and in-flight requests drain, and if the
//! drain outlives [`ServerConfig::drain_deadline`] the shared
//! [`CancelToken`] trips every in-flight governed run, which then
//! returns its consistent partial result as a `206` — a deadline-bound
//! shutdown that still answers every admitted request.

use crate::catalog::Catalog;
use crate::handlers::route;
use crate::http::{read_request, ReadError, Response};
use dex_relational::{fail, Budget, CancelToken};
use serde_json::{json, Map, Value as Json};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Everything tunable about a `dexd` instance. `Default` is the
/// configuration the integration tests and `dexcli serve` start from.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before the
    /// acceptor sheds with 429.
    pub queue_capacity: usize,
    /// Concurrent in-flight requests allowed per mapping (0 = uncapped);
    /// the per-tenant fairness cap behind the 429 `tenant_overloaded`.
    pub max_inflight_per_mapping: u64,
    /// Server-side budget every request starts from; request overrides
    /// can only tighten it (intersection, never replacement).
    pub default_budget: Budget,
    /// DEX502 admission ceiling: refuse (422) any request whose
    /// predicted headline chase bound exceeds this.
    pub deny_cost: Option<u64>,
    /// Derive per-request budget caps from the static chase bounds
    /// (`Budget::from_bounds`), so even an unbounded default budget
    /// cannot run further than the mapping's proven worst case.
    pub auto_budget: bool,
    /// How long shutdown waits for queued + in-flight requests before
    /// cancelling them into 206 partials.
    pub drain_deadline: Duration,
    /// Where `persist: true` requests write their stores
    /// (`<root>/<mapping>/run-<seq>`); `None` disables persistence.
    pub store_root: Option<PathBuf>,
    /// Socket IO budget: the absolute deadline for reading one whole
    /// request (see [`read_request`]) and the per-write timeout on
    /// responses — the longest a slow client can hold a worker.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_inflight_per_mapping: 8,
            default_budget: Budget::unlimited(),
            deny_cost: None,
            auto_budget: true,
            drain_deadline: Duration::from_secs(5),
            store_root: None,
            io_timeout: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// The admission settings every request runs the shared
    /// [`pipeline`](crate::pipeline) with.
    pub fn policy(&self) -> crate::pipeline::Policy {
        crate::pipeline::Policy {
            default_budget: self.default_budget,
            deny_cost: self.deny_cost,
            auto_budget: self.auto_budget,
        }
    }
}

/// Number of log₂ latency buckets: bucket `i` holds requests that took
/// `< 2^i` µs (the last bucket is open-ended). 2³⁹ µs ≈ 6.4 days, far
/// past any request the IO timeouts allow to live.
const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket log₂ histogram of request latencies in microseconds.
/// Recording is two relaxed atomic ops and one `fetch_max` — no
/// allocation, no lock, no contention point on the hot path; the
/// percentile walk happens only when `/statz` renders.
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one request that took `micros` µs.
    pub fn record(&self, micros: u64) {
        let idx = (64 - u64::leading_zeros(micros | 1) as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// Upper bound (µs) of the bucket holding the `p`-th percentile
    /// (`0 < p ≤ 100`), or `None` before any request. Log₂ buckets
    /// bound the answer to within 2× of the true latency — plenty for
    /// "did p99 regress by an order of magnitude".
    fn percentile(&self, p: u64) -> Option<u64> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let rank = (count * p).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(1u64 << i);
            }
        }
        Some(self.max_us.load(Ordering::Relaxed))
    }

    fn json(&self) -> Json {
        let opt = |v: Option<u64>| v.map(Json::from).unwrap_or(Json::Null);
        json!({
            "count": self.count.load(Ordering::Relaxed),
            "p50_us": opt(self.percentile(50)),
            "p99_us": opt(self.percentile(99)),
            "max_us": self.max_us.load(Ordering::Relaxed),
        })
    }
}

/// The endpoints `/statz` reports latency for, in index order. Mapping
/// operations are grouped by *operation* (not tenant): the latency
/// profile of `chase` vs `put` is what capacity planning needs.
pub const LATENCY_ENDPOINTS: &[&str] = &[
    "healthz", "readyz", "statz", "compile", "lint", "explain", "chase", "exchange", "put",
    "migrate", "other",
];

/// Classify a request path into a [`LATENCY_ENDPOINTS`] index.
pub fn latency_endpoint(path: &str) -> usize {
    let key = match path.strip_prefix("/v1/mappings/") {
        Some(rest) => match rest.split_once('/') {
            Some((_name, op)) => op,
            None => "other",
        },
        None => path.trim_start_matches('/'),
    };
    LATENCY_ENDPOINTS
        .iter()
        .position(|e| *e == key)
        .unwrap_or(LATENCY_ENDPOINTS.len() - 1)
}

/// Process-wide counters, all relaxed: they are telemetry, not
/// synchronization.
#[derive(Default)]
pub struct ServerStats {
    pub accepted: AtomicU64,
    pub served: AtomicU64,
    /// Connections shed by the acceptor because the queue was full.
    pub shed_queue: AtomicU64,
    /// Requests shed by the per-mapping in-flight cap.
    pub shed_tenant: AtomicU64,
    /// Requests refused by DEX502 admission control.
    pub refused: AtomicU64,
    /// Requests answered 206 with a partial result.
    pub partials: AtomicU64,
    /// Requests answered 500 (including injected faults).
    pub errors: AtomicU64,
    /// Panics caught by a barrier (request-level or connection-level).
    pub panics: AtomicU64,
    /// Connections whose request never parsed (400/413/dropped).
    pub malformed: AtomicU64,
    /// Requests currently executing in a worker (gauge, AcqRel: the
    /// drain loop reads it to decide when the server is quiescent).
    pub in_flight: AtomicU64,
    /// Per-endpoint request-latency histograms, indexed by
    /// [`latency_endpoint`]. Fixed-size atomics: recording allocates
    /// nothing.
    pub latency: [LatencyHistogram; LATENCY_ENDPOINTS.len()],
}

impl ServerStats {
    pub fn note_shed_tenant(&self) {
        self.shed_tenant.fetch_add(1, Ordering::Relaxed);
    }
    pub fn note_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }
    pub fn note_partial(&self) {
        self.partials.fetch_add(1, Ordering::Relaxed);
    }
    pub fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one served request's wall-clock latency against the
    /// endpoint that handled `path`.
    pub fn note_latency(&self, path: &str, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latency[latency_endpoint(path)].record(micros);
    }

    /// The `/statz` `latency` object: one histogram summary per
    /// endpoint that has served at least one request.
    fn latency_json(&self) -> Json {
        let mut m = Map::new();
        for (name, hist) in LATENCY_ENDPOINTS.iter().zip(&self.latency) {
            if hist.count.load(Ordering::Relaxed) > 0 {
                m.insert((*name).to_string(), hist.json());
            }
        }
        Json::Object(m)
    }

    fn json(&self) -> Json {
        json!({
            "accepted": self.accepted.load(Ordering::Relaxed),
            "served": self.served.load(Ordering::Relaxed),
            "shed_queue": self.shed_queue.load(Ordering::Relaxed),
            "shed_tenant": self.shed_tenant.load(Ordering::Relaxed),
            "refused": self.refused.load(Ordering::Relaxed),
            "partials": self.partials.load(Ordering::Relaxed),
            "errors": self.errors.load(Ordering::Relaxed),
            "panics": self.panics.load(Ordering::Relaxed),
            "malformed": self.malformed.load(Ordering::Relaxed),
            "in_flight": self.in_flight.load(Ordering::Acquire),
        })
    }
}

/// Shared server state handed to every handler.
pub struct ServerCtx {
    pub config: ServerConfig,
    pub catalog: Catalog,
    pub stats: ServerStats,
    /// Cancelled when the drain deadline expires: every in-flight
    /// governed run trips to its 206 partial. End-of-life only —
    /// cancellation is sticky.
    pub drain_cancel: CancelToken,
    shutdown: AtomicBool,
}

impl ServerCtx {
    /// True once shutdown has been requested: `/readyz` flips to 503
    /// and newly accepted connections are refused.
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The `/statz` document: server counters plus per-mapping state.
    pub fn statz(&self) -> Json {
        let mut mappings = Map::new();
        for entry in self.catalog.entries() {
            mappings.insert(entry.name.clone(), entry.stats_json());
        }
        json!({
            "v": 1,
            "draining": self.is_draining(),
            "server": self.stats.json(),
            "latency": self.stats.latency_json(),
            "mappings": Json::Object(mappings),
        })
    }
}

/// Poison-tolerant lock: a worker that panicked while holding the
/// queue lock (only possible through injected faults) must not wedge
/// the rest of the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The bounded handoff between acceptor and workers.
struct Queue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
    /// Connections popped by a worker and not yet fully served.
    /// Incremented *inside* the queue lock during [`pop`](Queue::pop),
    /// so `queue empty ∧ active == 0` (see [`idle`](Queue::idle)) is a
    /// race-free quiescence check for the drain loop — a connection is
    /// never in neither place.
    active: AtomicU64,
}

struct QueueInner {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            active: AtomicU64::new(0),
        }
    }

    /// Non-blocking enqueue; hands the stream back when full (the
    /// acceptor sheds it) or closed.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = lock(&self.inner);
        if q.closed || q.items.len() >= self.capacity {
            return Err(stream);
        }
        q.items.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking dequeue; `None` once the queue is closed *and* empty
    /// (drain: queued work is still served after shutdown). The popped
    /// connection counts as active until [`done`](Queue::done).
    fn pop(&self) -> Option<TcpStream> {
        let mut q = lock(&self.inner);
        loop {
            if let Some(s) = q.items.pop_front() {
                self.active.fetch_add(1, Ordering::AcqRel);
                return Some(s);
            }
            if q.closed {
                return None;
            }
            q = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .map(|(g, _)| g)
                .unwrap_or_else(|p| {
                    let (g, _) = p.into_inner();
                    g
                });
        }
    }

    /// A popped connection has been fully served (or dropped).
    fn done(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// No queued *and* no active connections: the server is quiescent.
    fn idle(&self) -> bool {
        lock(&self.inner).items.is_empty() && self.active.load(Ordering::Acquire) == 0
    }
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) detaches the server thread
/// (it keeps serving for the life of the process).
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind, start the acceptor + worker pool, and return once the
    /// socket is listening.
    pub fn spawn(config: ServerConfig, catalog: Catalog) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if let Some(root) = &config.store_root {
            // Skip past run directories a previous daemon process left
            // behind — `Store::create` refuses to overwrite them.
            catalog.seed_store_seqs(root);
        }
        let ctx = Arc::new(ServerCtx {
            config,
            catalog,
            stats: ServerStats::default(),
            drain_cancel: CancelToken::new(),
            shutdown: AtomicBool::new(false),
        });
        let run_ctx = Arc::clone(&ctx);
        let thread = std::thread::Builder::new()
            .name("dexd-acceptor".to_string())
            .spawn(move || run(listener, &run_ctx))?;
        Ok(ServerHandle {
            ctx,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server state (stats, drain flag) for observation.
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        &self.ctx
    }

    /// Ask the server to stop accepting and start draining, without
    /// waiting. `/readyz` answers 503 from this point on.
    pub fn request_shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::Release);
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests under the drain deadline, join every thread.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(t) = self.thread.take() {
            // An Err here means the acceptor thread itself panicked;
            // there is no server left to salvage and nothing to return
            // it to — the handle is consumed either way.
            let _ = t.join();
        }
    }
}

/// How long the acceptor sleeps when `accept` would block. This is
/// the floor on cold-connection latency (E19 measures it directly)
/// and the ceiling on shutdown-flag polling, so it is kept tight; a
/// millisecond of idle wakeups costs nothing on a dedicated thread.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// The acceptor + worker pool, on the dedicated server thread. Returns
/// only after a full drain: once shutdown is requested, new
/// connections are answered `503 draining` while queued and in-flight
/// requests finish; past the drain deadline the shared cancel token
/// trips them into 206 partials; the listener closes only when the
/// server is quiescent.
fn run(listener: TcpListener, ctx: &Arc<ServerCtx>) {
    let queue = Queue::new(ctx.config.queue_capacity);
    // Any Err from scope would mean a worker panicked outside its
    // connection barrier; the barrier makes that unreachable, and the
    // server is exiting regardless.
    let _ = crossbeam::scope(|s| {
        for _ in 0..ctx.config.workers.max(1) {
            let queue = &queue;
            let ctx = Arc::clone(ctx);
            s.spawn(move |_| worker_loop(queue, &ctx));
        }
        accept_loop(&listener, &queue, ctx);
        // Quiescent: release the workers. Scope exit joins them.
        queue.close();
    });
}

/// Accept (and during drain, refuse) connections until the server is
/// both shut down and quiescent. Full queue → immediate 429 +
/// `Retry-After`; draining → immediate 503. Both cost the acceptor one
/// small write, never a worker.
fn accept_loop(listener: &TcpListener, queue: &Queue, ctx: &Arc<ServerCtx>) {
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if ctx.is_draining() {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + ctx.config.drain_deadline);
            if queue.idle() {
                return;
            }
            if Instant::now() >= deadline {
                // Past the deadline: trip every in-flight governed
                // run. Each unwinds cooperatively into its 206
                // partial; queued requests then see the cancelled
                // token immediately and finish fast.
                ctx.drain_cancel.cancel();
                // Cancellation is cooperative and request reads are
                // deadline-bounded, so workers quiesce within roughly
                // one io_timeout of the cancel. A connection stuck
                // past that (a peer that never drains its response,
                // a non-governed code path) must not hang shutdown
                // forever: stop waiting and let the scope join the
                // workers as their sockets time out.
                if Instant::now() >= deadline + ctx.config.io_timeout + Duration::from_secs(1) {
                    return;
                }
            }
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            // Transient accept failure (EMFILE, ECONNABORTED, …):
            // count it and keep accepting — never exit the loop.
            Err(_) => {
                ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        // `server.accept` fail point: Error drops the brand-new
        // connection; Panic must not kill the acceptor, so it is
        // caught right here.
        match catch_unwind(|| fail::hit("server.accept")) {
            Ok(None) => {}
            Ok(Some(_e)) => {
                ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
                continue; // drop the connection
            }
            Err(_) => {
                ctx.stats.panics.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
        ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(ctx.config.io_timeout));
        let _ = stream.set_write_timeout(Some(ctx.config.io_timeout));
        if ctx.is_draining() {
            shed(
                stream,
                Response::error(503, "draining", "shutting down").with_retry_after(1),
            );
            continue;
        }
        if let Err(stream) = queue.try_push(stream) {
            ctx.stats.shed_queue.fetch_add(1, Ordering::Relaxed);
            shed(
                stream,
                Response::error(
                    429,
                    "overloaded",
                    format!(
                        "request queue full ({} waiting, {} workers busy)",
                        ctx.config.queue_capacity, ctx.config.workers
                    ),
                )
                .with_retry_after(1),
            );
        }
    }
}

/// Best-effort refusal write from the acceptor thread. The request
/// was never read, so this must be the RST-safe path — and it bounds
/// the acceptor's stall per shed (~100 ms worst case against a client
/// that never closes).
fn shed(mut stream: TcpStream, resp: Response) {
    resp.write_refusal(&mut stream);
}

/// One worker: pop connections until the queue closes, each behind a
/// connection-level panic barrier so no injected or latent panic can
/// thin the pool.
fn worker_loop(queue: &Queue, ctx: &Arc<ServerCtx>) {
    while let Some(mut stream) = queue.pop() {
        ctx.stats.in_flight.fetch_add(1, Ordering::AcqRel);
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(&mut stream, ctx)));
        if outcome.is_err() {
            // A panic escaped the request barrier (e.g. injected at a
            // `server.*` site outside it). The worker survives; the
            // client gets a best-effort 500 (RST-safe: the request may
            // be half-read).
            ctx.stats.note_panic();
            Response::error(500, "panic", "internal panic").write_refusal(&mut stream);
        }
        ctx.stats.in_flight.fetch_sub(1, Ordering::AcqRel);
        queue.done();
    }
}

/// Read, route, respond — one request per connection.
fn serve_connection(stream: &mut TcpStream, ctx: &Arc<ServerCtx>) {
    // `server.read_request` fail point: an injected error behaves like
    // a client whose request never parsed.
    if let Some(e) = fail::hit("server.read_request") {
        ctx.stats.malformed.fetch_add(1, Ordering::Relaxed);
        Response::error(400, "bad_request", e).write_refusal(stream);
        return;
    }
    let req = match read_request(stream, ctx.config.io_timeout) {
        Ok(req) => req,
        Err(ReadError::Malformed(msg)) => {
            ctx.stats.malformed.fetch_add(1, Ordering::Relaxed);
            Response::error(400, "bad_request", msg).write_refusal(stream);
            return;
        }
        Err(ReadError::TooLarge(msg)) => {
            ctx.stats.malformed.fetch_add(1, Ordering::Relaxed);
            Response::error(413, "too_large", msg).write_refusal(stream);
            return;
        }
        Err(ReadError::Io(_)) => {
            // The socket died; nobody is listening for an error body.
            ctx.stats.malformed.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let started = Instant::now();
    let mut resp = route(&req, ctx);
    ctx.stats.note_latency(&req.path, started.elapsed());
    // `server.write_response` fail point: the computed response is
    // lost; degrade to a well-formed 500 so the client still gets
    // valid HTTP.
    if let Some(e) = fail::hit("server.write_response") {
        ctx.stats.note_error();
        resp = Response::error(500, "internal", e);
    }
    ctx.stats.served.fetch_add(1, Ordering::Relaxed);
    let _ = resp.write_to(stream);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bounds_and_close_semantics() {
        // TcpStream is awkward to fabricate; exercise the queue with a
        // real loopback pair.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mk = || {
            let c = TcpStream::connect(addr).expect("connect");
            let (s, _) = listener.accept().expect("accept");
            drop(c);
            s
        };
        let q = Queue::new(2);
        assert!(q.idle(), "fresh queue is idle");
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_err(), "third enqueue sheds");
        assert!(!q.idle());
        assert!(q.pop().is_some());
        q.close();
        assert!(q.pop().is_some(), "queued work drains after close");
        assert!(!q.idle(), "popped connections count as active");
        q.done();
        q.done();
        assert!(q.idle(), "served connections release the gauge");
        assert!(q.pop().is_none(), "closed and empty");
        assert!(q.try_push(mk()).is_err(), "closed queue rejects");
    }

    #[test]
    fn latency_histogram_percentiles_bound_the_data() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(50), None, "empty histogram has no percentiles");
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5000] {
            h.record(us);
        }
        let p50 = h.percentile(50).unwrap();
        // Log₂ buckets answer within 2× above the true value.
        assert!((50..=128).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(99).unwrap();
        assert!(p99 >= 5000, "p99 = {p99} must cover the outlier");
        assert_eq!(h.max_us.load(Ordering::Relaxed), 5000, "max is exact");
        assert_eq!(h.count.load(Ordering::Relaxed), 10);
        // Zero is recordable (sub-microsecond request) and huge values
        // clamp into the last bucket instead of indexing out of range.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count.load(Ordering::Relaxed), 12);
        assert_eq!(h.max_us.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn latency_endpoint_classification() {
        let idx = |p| LATENCY_ENDPOINTS[latency_endpoint(p)];
        assert_eq!(idx("/healthz"), "healthz");
        assert_eq!(idx("/statz"), "statz");
        assert_eq!(idx("/v1/mappings/emp/chase"), "chase");
        assert_eq!(idx("/v1/mappings/any-tenant/migrate"), "migrate");
        assert_eq!(idx("/v1/mappings/emp/bogus"), "other");
        assert_eq!(idx("/nonsense"), "other");
        assert_eq!(idx("/v1/mappings/alone"), "other");
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity >= 1);
        assert!(c.auto_budget);
        assert!(c.deny_cost.is_none());
    }
}
