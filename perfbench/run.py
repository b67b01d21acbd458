#!/usr/bin/env python3
"""End-to-end benchmark of the dex CLI (`dexcli`) and daemon (`dexd`).

    python3 perfbench/run.py --workload cli-bulk --seed 1 --seconds 25 --trace 0

Run it from the repository root. It builds `dexcli` and the traced
replica (`perfbench/trace`) with cargo into `$CARGO_TARGET_DIR` (default
`.bench_build`), generates the workload's inputs from `--seed`, runs the
workload for about `--seconds`, checks every output against oracles
computed from the generated inputs, and prints one JSON object as its last
line of standard output:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. The lines before it summarize the
run for a human, including two unbounded figures, `error_rate` and
`p99_ms`, and serve-mix's open-loop sample count and generator lag.

Workloads (perfbench/NOTES.md says why each was chosen):
  cli-bulk        three whole `dexcli` processes per iteration
  durable-rounds  chase --store (budget-stopped), resume, migrate, fsck
  serve-mix       a `dexcli serve` child driven over sockets
  all             each of the above in turn (one JSON line each)

`--smoke` shrinks every input to a size that runs in about a second;
`--record FILE` appends {workload, seed, trace, result, unbounded} to
FILE as one JSON line, the input format of perfbench/compare.py.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

WORKLOADS = ("cli-bulk", "durable-rounds", "serve-mix")

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 5

# serve-mix offered rate for the open loop (requests per second), about a
# quarter of the closed loop's sat_rps (~300) on a 2-core machine. At half
# of sat_rps the two sending threads queue behind each other often enough
# that a slow spell of the machine shows up in every latency (sizing runs:
# p50_ms spread 0.17 across runs at 150 req/s, 0.05 at 75). Changing it
# changes the workload; BENCHMARK.json's serve-mix entry states it.
OPEN_LOOP_RPS = 75

# Share of a serve-mix run spent in the open loop; the rest is the
# closed loop.
OPEN_LOOP_SHARE = 0.6

# The serve-mix requests, in rotation order: (kind, mapping, operation).
SERVE_KINDS = (
    ("copy", "copy", "chase"),
    ("exchange", "emp", "exchange"),
    ("put", "emp", "put"),
    ("persist", "reach", "chase"),
)

# A `dexcli` step that takes longer than this is killed and fails.
STEP_TIMEOUT_S = 150


def log(msg):
    print(msg, flush=True)


# ------------------------------------------------------------------ build


def build(root):
    """Build `dexcli` and the traced replica; return their paths.

    Both are built whatever `--trace` says, so the first run in a fresh
    checkout pays for both builds and later runs only check freshness.
    """
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    cmds = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "dexcli"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join(HERE, "trace", "Cargo.toml"),
        ],
    ]
    for cmd in cmds:
        rc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        if rc != 0:
            sys.exit(f"benchmark build failed (exit {rc}): {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "dexcli"), os.path.join(release, "dexbench-trace")


# -------------------------------------------------------------- processes


class Proc:
    def __init__(self, wall, rc, rss_mb, stderr):
        self.wall, self.rc, self.rss_mb, self.stderr = wall, rc, rss_mb, stderr


def run_proc(argv, stdout_path=None):
    """Run one process to completion; wall time covers spawn to exit and
    peak resident memory comes from the kernel's rusage for that child."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE)
        timer = threading.Timer(STEP_TIMEOUT_S, p.kill)
        timer.start()
        try:
            err = p.stderr.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stderr.close()
    finally:
        if stdout_path:
            out.close()
    return Proc(wall, p.returncode, usage.ru_maxrss / 1024.0, err.decode(errors="replace"))


def stderr_stats(text):
    """The `--stats --format json` object: the last stderr line that is
    a JSON object, without its time fields."""
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return normalize_stats(json.loads(line)["stats"])
    raise gen.OracleError("no --stats JSON on stderr")


def normalize_stats(stats):
    """Drop the time fields of a ForwardStats object; ChaseStats has none."""
    stats = dict(stats)
    stats.pop("egd_ms", None)
    if "per_relation" in stats:
        stats["per_relation"] = [
            {k: v for k, v in r.items() if not k.endswith("_ms")} for r in stats["per_relation"]
        ]
    return stats


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def read_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- context


class Run:
    """One benchmark run: paths, the failure tally and set-up timing."""

    def __init__(self, args, root, dexcli, tracer):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, bool(args.trace)
        self.size = gen.SMOKE if args.smoke else gen.FULL
        self.dexcli, self.tracer = dexcli, tracer
        self.work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.attempted = 0
        self.failed = 0
        self.setup_times = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def check(self, name, fn):
        """Count one operation; any exception from `fn` makes it failed.
        Returns fn's result, or None on failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # an oracle, exit-code or protocol failure
            self.failed += 1
            if self.failed <= 5:
                log(f"FAILED {name}: {type(e).__name__}: {e}")
            return None

    def setup(self, fn):
        """Run set-up SETUP_REPEATS times (the last result is kept), then
        flush the file system, so that writeback and discards left by
        earlier runs do not land in this run's measured fsyncs. The
        garbage collector stays off while timing: set-up allocates tens
        of thousands of small lists, and whether a collection fell inside
        the timed span decided more of its spread than the work did."""
        result = None
        for _ in range(SETUP_REPEATS):
            if result is not None and hasattr(result, "close"):
                result.close()
            gc.disable()
            try:
                t = time.perf_counter()
                result = fn()
                self.setup_times.append(time.perf_counter() - t)
            finally:
                gc.enable()
        os.sync()
        return result

    def until_deadline(self):
        """Yield iteration numbers until --seconds have passed (at least one)."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            yield i
            i += 1

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


# -------------------------------------------------------------- CLI steps


class Step:
    """One `dexcli` process of an iteration, and its traced replica.

    `verify(proc, out_path)` raises on a wrong result and returns
    (tuples delivered, bytes of output left at rest); `trace_verify(obj,
    out_path)` does the same for the replica's JSON report.
    """

    def __init__(self, name, args, rc, verify, trace_args, trace_verify, stats=False, out=None):
        self.name, self.args, self.rc, self.verify = name, args, rc, verify
        self.trace_args, self.trace_verify = trace_args, trace_verify
        self.stats, self.out = stats, out


def run_step(run, step, counters):
    """Run one step's `dexcli` process; returns the Proc and (tuples,
    bytes), or None when it failed. Stats counters must repeat exactly
    across iterations (they are deterministic) and are kept in `counters`."""
    argv = [run.dexcli] + step.args + (["--stats", "--format", "json"] if step.stats else [])
    proc = run_proc(argv, step.out)

    def verify():
        if proc.rc != step.rc:
            raise gen.OracleError(f"exit {proc.rc}, want {step.rc}: {proc.stderr[-300:]}")
        delivered = step.verify(proc, step.out)
        if step.stats:
            stats = stderr_stats(proc.stderr)
            if counters.setdefault(step.name, stats) != stats:
                raise gen.OracleError("--stats counters changed between iterations")
        return delivered

    return proc, run.check(f"dexcli {step.name}", verify)


def run_trace_step(run, step, counters):
    """Run one step's traced replica; returns its report or None."""
    out = step.out + ".trace" if step.out else None
    argv = [run.tracer] + step.trace_args(out)
    proc = run_proc(argv, run.path("trace.json"))

    def verify():
        if proc.rc != 0:
            raise gen.OracleError(f"replica exit {proc.rc}: {proc.stderr[-300:]}")
        report = read_json(run.path("trace.json"))
        step.trace_verify(report, out)
        if step.stats and normalize_stats(report["stats"]) != counters.get(step.name):
            raise gen.OracleError("traced counters differ from dexcli --stats counters")
        return report

    return run.check(f"traced {step.name}", verify)


def cli_iterations(run, make_steps):
    """Drive a CLI workload: iterations of `make_steps(i)` until the
    deadline; returns (end-to-end samples, per-layer samples)."""
    counters = {}
    e2e = {"walls": [], "tput": [], "steps": [], "rss": [], "bpt": []}
    layers = []
    for i in run.until_deadline():
        steps = make_steps(i)
        wall = tuples = at_rest = 0
        ok = True
        procs = []
        for step in steps:
            proc, res = run_step(run, step, counters)
            procs.append(proc)
            e2e["steps"].append((step.name, proc.wall))
            e2e["rss"].append(proc.rss_mb)
            wall += proc.wall
            if res is None:
                ok = False
                continue
            tuples += res[0]
            at_rest += res[1]
        if ok and tuples:
            e2e["walls"].append(wall)
            e2e["tput"].append(tuples / wall)
            e2e["bpt"].append(at_rest / tuples)
        if run.trace:
            reports = [run_trace_step(run, s, counters) for s in steps]
            if all(r is not None for r in reports):
                layers.append(fold_reports(reports, sum(p.wall for p in procs)))
    return e2e, layers


def kind_p50(samples):
    """Median latency per operation kind, averaged over the kinds.

    The mixes are multi-modal (one cluster per kind, equal shares), so
    the plain median of the mix sits on the boundary between two
    clusters and jumps between them from run to run; the per-kind
    medians do not.
    """
    by_kind = {}
    for kind, ms in samples:
        by_kind.setdefault(kind, []).append(ms)
    return statistics.mean(median(v) for v in by_kind.values())


def cli_metrics(e2e):
    steps_ms = [w * 1e3 for _, w in e2e["steps"]]
    return {
        "wall_s": median(e2e["walls"]),
        "tuples_per_s": median(e2e["tput"]),
        "p50_ms": kind_p50([(k, w * 1e3) for k, w in e2e["steps"]]),
        "p99_ms": percentile(steps_ms, 99),
        "sat_rps": len(e2e["steps"]) / sum(w for _, w in e2e["steps"]),
        "peak_rss_mb": max(e2e["rss"]),
        "store_bytes_per_tuple": median(e2e["bpt"]),
    }


def fold_reports(reports, process_wall):
    """Sum the replica reports of one iteration into layer samples."""
    spans, counts = {}, {}
    wall = 0.0
    for r in reports:
        wall += r["wall_s"]
        for k, v in r["trace"]["spans"].items():
            spans[k] = spans.get(k, 0.0) + v
        for k, v in r["trace"]["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
    layer_s = sum(spans.values())
    sample = dict(spans)
    sample.update(counts)
    sample["cli.residual_s"] = process_wall - layer_s
    sample["trace.coverage"] = layer_s / wall if wall else 0.0
    return sample


def derive_layers(sample):
    """Ratios computed per iteration from its counters."""
    firings = sum(sample.get(k, 0.0) for k in ("chase.st_firings", "chase.target_firings", "chase.egd_merges"))
    sample["chase.probes_per_firing"] = sample.get("chase.index_probes", 0.0) / firings if firings else 0.0
    final = sample.pop("store.final_snapshot_bytes", 0.0)
    written = sample.get("store.wal_bytes", 0.0) + sample.get("store.snapshot_bytes", 0.0)
    sample["store.write_amp"] = written / final if final else 0.0
    return sample


def checked_output(check):
    """A Step.verify for a JSON instance on stdout: run the oracle,
    deliver its tuples and the bytes the output file holds."""

    def verify(proc, path):
        out = read_json(path)
        check(out)
        return gen.tuple_count(out), os.path.getsize(path)

    return verify


def checked_trace_output(check):
    """The same oracle as a Step.trace_verify."""
    return lambda report, path: check(read_json(path))


# --------------------------------------------------------------- cli-bulk


def cli_bulk(run):
    def setup():
        srcs = gen.cli_bulk(run.seed, run.size)
        for name, dex in (("e17", gen.E17_DEX), ("emp", gen.EMP_DEX), ("egd", gen.EGD_DEX)):
            with open(run.path(f"{name}.dex"), "w") as f:
                f.write(dex)
            gen.write_json(run.path(f"{name}.json"), srcs[name])
        return srcs

    srcs = run.setup(setup)
    oracles = {
        "e17": lambda out: gen.check_e17(out, srcs["e17"]),
        "emp": lambda out: gen.check_workers(out, srcs["emp"]),
        "egd": lambda out: gen.check_egd(out, srcs["egd"]),
    }

    def step(name, cmd):
        dex, src, out = run.path(f"{name}.dex"), run.path(f"{name}.json"), run.path(f"{name}.out")
        return Step(
            f"{cmd}-{name}",
            [cmd, dex, src],
            0,
            checked_output(oracles[name]),
            lambda o: [cmd, dex, src, o],
            checked_trace_output(oracles[name]),
            stats=True,
            out=out,
        )

    steps = [step("e17", "chase"), step("emp", "exchange"), step("egd", "chase")]
    return cli_iterations(run, lambda i: steps)


# --------------------------------------------------------- durable-rounds


def durable_rounds(run):
    length = run.size["chain"]
    rounds = str(run.size["chase_rounds"])
    stored = gen.reach_tuples(length)
    reach, src = run.path("reach.dex"), run.path("reach.json")
    schema, whole = run.path("migrated.dex"), run.path("whole.out")

    def setup():
        inputs = gen.durable_rounds(run.seed, run.size)
        with open(reach, "w") as f:
            f.write(gen.REACH_DEX)
        with open(schema, "w") as f:
            f.write(gen.REACH_MIGRATED_DEX)
        gen.write_json(src, inputs["source"])
        # The uninterrupted one-shot chase that `resume` must reproduce
        # byte for byte; it must itself pass the closed-form oracle.
        proc = run_proc([run.dexcli, "chase", reach, src], whole)
        if proc.rc != 0:
            raise SystemExit(f"set-up chase failed (exit {proc.rc}): {proc.stderr[-300:]}")
        gen.check_reach(read_json(whole), inputs["nodes"])
        return inputs

    nodes = run.setup(setup)["nodes"]
    with open(whole, "rb") as f:
        whole_bytes = f.read()

    def same_as_whole(path):
        with open(path, "rb") as f:
            if f.read() != whole_bytes:
                raise gen.OracleError("resume output differs from the one-shot chase")

    def resumed(proc, path):
        same_as_whole(path)
        return stored, 0

    def migrated(proc, path):
        if f"serves {stored} tuple(s)" not in proc.stderr:
            raise gen.OracleError(f"migrate did not report {stored} tuples: {proc.stderr[-300:]}")
        return 0, 0

    def trace_clean(report, path):
        if not report["clean"]:
            raise gen.OracleError(f"traced fsck is not clean: {report['report']}")

    def trace_migrated(report, path):
        if report["tuples"] != stored:
            raise gen.OracleError(f"traced migrate stored {report['tuples']} tuples")

    def prefix(proc, path):
        gen.check_reach_prefix(read_json(path), nodes)
        return 0, 0

    def make_steps(i):
        d, td = run.path("store"), run.path("store.trace")
        shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(td, ignore_errors=True)

        def clean(proc, path):
            with open(path) as f:
                last = f.read().strip().splitlines()[-1:]
            if last != ["clean"]:
                raise gen.OracleError(f"fsck is not clean: {last}")
            # Bytes at rest: the migrated store, per stored tuple.
            return 0, dir_bytes(d)

        return [
            Step("chase", ["chase", reach, src, "--store", d, "--max-rounds", rounds], 3, prefix,
                 lambda o: ["chase", reach, src, o, "--store", td, "--max-rounds", rounds],
                 checked_trace_output(lambda out: gen.check_reach_prefix(out, nodes)),
                 stats=True, out=run.path("partial.out")),
            Step("resume", ["resume", d], 0, resumed, lambda o: ["resume", td, o],
                 lambda report, o: same_as_whole(o), stats=True, out=run.path("resumed.out")),
            Step("migrate", ["migrate", d, schema], 0, migrated,
                 lambda o: ["migrate", td, schema], trace_migrated),
            Step("fsck", ["fsck", d], 0, clean, lambda o: ["fsck", td], trace_clean,
                 out=run.path("fsck.out")),
        ]

    return cli_iterations(run, make_steps)


# -------------------------------------------------------------- serve-mix


def http(port, method, path, body=b""):
    """One request on its own connection (dexd answers Connection: close)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(head.encode() + body)
        chunks = []
        while True:
            c = s.recv(1 << 16)
            if not c:
                break
            chunks.append(c)
    status_line, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(status_line.split(b" ", 2)[1]), payload


class Daemon:
    """A `dexcli serve` child, ready to serve once constructed."""

    def __init__(self, run, maps, store_root):
        argv = [run.dexcli, "serve", "--workers", "2", "--addr", "127.0.0.1:0",
                "--store-root", store_root]
        for name, path in maps.items():
            argv += ["--map", f"{name}={path}"]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline().decode()
        if "http://" not in line:
            self.close()
            raise SystemExit(f"dexd did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        # Keep draining stderr so the child never blocks on a full pipe.
        self.drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self.drain.start()
        deadline = time.perf_counter() + 30
        while http(self.port, "GET", "/readyz")[0] != 200:
            if time.perf_counter() > deadline:
                self.close()
                raise SystemExit("dexd never became ready")
            time.sleep(0.01)

    def statz(self):
        return json.loads(http(self.port, "GET", "/statz")[1])["server"]

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "drain", None):
            self.drain.join()


class ServeSetup:
    def __init__(self, variants, daemon):
        self.variants, self.daemon = variants, daemon

    def close(self):
        self.daemon.close()


def serve_requests(variants):
    """The fixed rotation: every kind in order, cycling through variants."""
    reqs = []
    for v, variant in enumerate(variants):
        for kind, mapping, op in SERVE_KINDS:
            body = json.dumps(variant[kind], separators=(",", ":")).encode()
            reqs.append((kind, v, f"/v1/mappings/{mapping}/{op}", body))
    return reqs


def open_loop(port, reqs, rate, duration):
    """Send request i at t0 + i/rate from two threads, whatever the
    replies do; latency is timed from each request's due time."""
    lock = threading.Lock()
    nxt = [0]
    total = max(1, int(duration * rate))
    samples = []
    t0 = time.perf_counter() + 0.01

    def worker():
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= total:
                return
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            kind, v, path, body = reqs[i % len(reqs)]
            sent = time.perf_counter()
            status, payload = request(port, path, body)
            samples.append((kind, v, due, sent, time.perf_counter(), status, payload))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def closed_loop(port, reqs, duration):
    """Two connections, each sending its next request when the last
    reply arrives; returns (samples, rotation walls, elapsed)."""
    start = time.perf_counter()
    end = start + duration
    samples, rotations = [], []
    per_rot = len(SERVE_KINDS)

    def worker(offset):
        i = offset * per_rot
        rot_start = time.perf_counter()
        while time.perf_counter() < end:
            kind, v, path, body = reqs[i % len(reqs)]
            sent = time.perf_counter()
            status, payload = request(port, path, body)
            samples.append((kind, v, sent, sent, time.perf_counter(), status, payload))
            i += 1
            if i % per_rot == 0:
                now = time.perf_counter()
                rotations.append(now - rot_start)
                rot_start = now

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples, rotations, time.perf_counter() - start


def request(port, path, body):
    try:
        return http(port, "POST", path, body)
    except OSError as e:
        return 0, str(e).encode()


def check_response(variant, kind, status, payload):
    """Oracle for one serve-mix response; returns the rows it carries."""
    if status != 200:
        raise gen.OracleError(f"{kind}: status {status}: {payload[:200]!r}")
    resp = json.loads(payload)
    src = variant[kind]["source"]
    if kind == "copy":
        out = resp["target"]
        gen.check_same_instance(out, {"B": src["A"]})
    elif kind == "exchange":
        out = resp["target"]
        gen.check_workers(out, src)
    elif kind == "put":
        out = resp["source"]
        gen.check_same_instance(out, src)
    else:
        out = resp["target"]
        gen.check_reach(out, variant["nodes"])
        if not resp.get("store"):
            raise gen.OracleError("persist response names no store")
    return gen.tuple_count(out)


def serve_mix(run):
    texts = {"copy": gen.COPY_DEX, "emp": gen.EMP_DEX, "reach": gen.REACH_DEX}
    maps = {name: run.path(f"{name}.dex") for name in texts}
    store_root = run.path("stores")

    def setup():
        shutil.rmtree(store_root, ignore_errors=True)
        variants = gen.serve_mix(run.seed, run.size)
        for name, dex in texts.items():
            with open(maps[name], "w") as f:
                f.write(dex)
        gen.write_json(run.path("bodies.json"), {
            kind: [v[kind] for v in variants] for kind, _, _ in SERVE_KINDS
        })
        return ServeSetup(variants, Daemon(run, maps, store_root))

    st = run.setup(setup)
    daemon, variants = st.daemon, st.variants
    reqs = serve_requests(variants)
    try:
        # Warm-up, not measured: every request once, then one second of
        # closed loop. The client's garbage collector stays off while
        # measuring, so its pauses do not read as server latency.
        for kind, v, path, body in reqs:
            request(daemon.port, path, body)
        closed_loop(daemon.port, reqs, 1.0)
        before = daemon.statz()
        loops = run.seconds * (0.5 if run.trace else 1.0)
        gc.disable()
        open_s = open_loop(daemon.port, reqs, OPEN_LOOP_RPS, loops * OPEN_LOOP_SHARE)
        closed_start = time.perf_counter()
        closed_s, rotations, elapsed = closed_loop(daemon.port, reqs, loops * (1 - OPEN_LOOP_SHARE))
        after = daemon.statz()
        rss = daemon.peak_rss_mb()
    finally:
        gc.enable()
        st.close()

    # Closed-loop rates per one-second window (a trailing part window is
    # dropped), reported as medians so a short stall elsewhere on the
    # machine moves one window, not the run.
    windows = max(1, int(elapsed))
    served, rows = [0] * windows, [0] * windows
    for phase, samples in (("open", open_s), ("closed", closed_s)):
        for kind, v, due, sent, done, status, payload in samples:
            n = run.check(f"{phase} {kind}", lambda: check_response(variants[v], kind, status, payload))
            w = int(done - closed_start)
            if phase == "closed" and n is not None and w < windows:
                served[w] += 1
                rows[w] += n
    lat = [(done - due) * 1e3 for _, _, due, _, done, _, _ in open_s]
    lag = [(sent - due) * 1e3 for _, _, due, sent, _, _, _ in open_s]
    log(f"serve-mix open loop: {len(lat)} samples at {OPEN_LOOP_RPS} req/s, generator lag "
        f"median {median(lag):.3f} ms, max {max(lag):.3f} ms; closed loop: {len(closed_s)} "
        f"requests in {elapsed:.2f} s")
    persisted = len(os.listdir(os.path.join(store_root, "reach"))) * gen.reach_tuples(
        run.size["serve_chain"])
    metrics = {
        "wall_s": median(rotations),
        "tuples_per_s": median(rows),
        "p50_ms": kind_p50([(s[0], ms) for s, ms in zip(open_s, lat)]),
        "p99_ms": percentile(lat, 99),
        "sat_rps": median(served),
        "peak_rss_mb": rss,
        "store_bytes_per_tuple": dir_bytes(os.path.join(store_root, "reach")) / persisted,
    }
    layers = []
    if run.trace:
        layers = serve_layers(run, maps, open_s, before, after)
    return metrics, layers


def serve_layers(run, maps, open_s, before, after):
    """The traced serve-mix run: `handlers::route` and the request's
    layers in process, beside the client latencies just measured."""
    argv = [run.tracer, "serve", run.path("bodies.json"), run.path("trace-stores"),
            str(run.seconds * 0.5)] + [f"{k}={v}" for k, v in maps.items()]
    proc = run_proc(argv, run.path("trace.json"))

    def verify():
        if proc.rc != 0:
            raise gen.OracleError(f"replica exit {proc.rc}: {proc.stderr[-300:]}")
        report = read_json(run.path("trace.json"))
        if report["failures"]:
            raise gen.OracleError(f"replica requests failed: {report['failures'][:3]}")
        return report

    report = run.check("traced serve", verify)
    if report is None:
        return []
    route = report["route_ms"]
    client = {}
    for kind, _, due, _, done, status, _ in open_s:
        client.setdefault(kind, []).append((done - due) * 1e3)
    outside = [median(client[k]) - route[k] for k in route if k in client]
    route_s = sum(route.values()) / 1e3
    delta = {k: after[k] - before[k] for k in after if isinstance(after[k], int)}
    samples = []
    for it in report["iterations"]:
        sample = dict(it["trace"]["spans"])
        sample.update(it["trace"]["counts"])
        sample["trace.coverage"] = sum(it["trace"]["spans"].values()) / route_s
        sample["cli.residual_s"] = 0.0
        for kind, ms in route.items():
            sample[f"dexd.route_ms.{kind}"] = ms
        sample["dexd.outside_route_ms"] = statistics.mean(outside)
        sample["dexd.shed"] = delta["shed_queue"] + delta["shed_tenant"]
        sample["dexd.partial"] = delta["partials"]
        sample["dexd.errors"] = delta["errors"]
        samples.append(sample)
    return samples


# ------------------------------------------------------------------- main


def run_workload(args, root, bench, dexcli, tracer, workload):
    args.workload = workload
    run = Run(args, root, dexcli, tracer)
    try:
        if workload == "serve-mix":
            e2e, layers = serve_mix(run)
        else:
            samples, layers = (cli_bulk if workload == "cli-bulk" else durable_rounds)(run)
            e2e = cli_metrics(samples) if samples["walls"] else {}
        e2e["setup_s"] = median(run.setup_times)
    finally:
        run.close()
    if run.trace:
        layers = [derive_layers(s) for s in layers]
        wanted = bench["per_layer"]
        values = {m["name"]: median([s.get(m["name"], 0.0) for s in layers]) for m in wanted}
    else:
        wanted = bench["end_to_end"]
        values = {m["name"]: e2e.get(m["name"], 0.0) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    # Printed and recorded, but not bounded metrics: error_rate is 0 on
    # correct code, and p99_ms spreads wider across runs than any bound
    # allows on a shared machine (NOTES.md).
    unbounded = {"error_rate": {"value": run.failed / max(run.attempted, 1), "unit": "ratio"}}
    if "p99_ms" in e2e and not run.trace:
        unbounded["p99_ms"] = {"value": e2e["p99_ms"], "unit": "ms"}
    log(f"{workload} seed={args.seed} trace={int(run.trace)}: "
        f"{run.failed} of {run.attempted} operations failed")
    for name, m in {**metrics, **unbounded}.items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, unbounded


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    ap.add_argument("--record", help="append this run's result to a JSONL file for compare.py")
    args = ap.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    dexcli, tracer = build(root)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, unbounded = run_workload(args, root, bench, dexcli, tracer, workload)
        if args.record:
            with open(args.record, "a") as f:
                rec = {"workload": workload, "seed": args.seed, "trace": args.trace,
                       "result": result, "unbounded": unbounded}
                f.write(json.dumps(rec) + "\n")
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
