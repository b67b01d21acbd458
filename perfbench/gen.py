"""Seeded input generators and closed-form output oracles.

Every input the benchmark feeds to dex comes from here, derived only from
the workload seed and a size table. Every oracle checks an output against
facts that follow from the generated input by construction (counts,
joins, reachability), never against anything dex computed.
"""

import json
import random

# E17: Emp -> Manager, then the target tgd Manager -> Mgr (one round).
E17_DEX = """source Emp(name);
target Manager(emp, mgr);
target Mgr(m);
Emp(x) -> Manager(x, y);
Manager(e, m) -> Mgr(m);
"""

# E19: the employees join with a key on the view.
EMP_DEX = """source Emp(name, dept);
source Dept(dept, mgr);
target Worker(name, dept, mgr);
key Worker(name);
Emp(n, d) & Dept(d, m) -> Worker(n, d, m);
"""

# Egd merging: every employee first gets an invented manager, then the
# key merges it with the boss the source names, one merge per employee.
EGD_DEX = """source Emp(name);
source Boss(emp, boss);
target Manager(emp, mgr);
key Manager(emp);
Emp(x) -> Manager(x, m);
Boss(x, b) -> Manager(x, b);
"""

# Reachability over a chain: one target round per path length.
REACH_DEX = """source Edge(x, y);
target E(x, y);
target Path(x, y);
target Hop(x, w);
Edge(x, y) -> E(x, y);
Edge(x, y) -> Path(x, y);
Path(x, y) & E(y, z) -> Path(x, z);
Path(x, y) -> Hop(x, w);
"""

# The evolved schema `migrate` moves the reach store to: Path gains a
# `hops` column, everything else is unchanged.
REACH_MIGRATED_DEX = """target E(x, y);
target Path(x, y, hops);
target Hop(x, w);
"""

COPY_DEX = """source A(x);
target B(x);
A(v) -> B(v);
"""

FULL = {
    "e17_emps": 20000,
    "emp_emps": 10000,
    "emp_depts": 200,
    "egd_emps": 500,
    "chain": 300,
    "chase_rounds": 150,
    "copy_rows": 4,
    "serve_emps": 190,
    "serve_depts": 10,
    "serve_chain": 20,
    "serve_variants": 8,
}

# Smoke sizes: the same shapes, small enough to run in a second.
SMOKE = {
    "e17_emps": 200,
    "emp_emps": 100,
    "emp_depts": 10,
    "egd_emps": 20,
    "chain": 12,
    "chase_rounds": 6,
    "copy_rows": 4,
    "serve_emps": 19,
    "serve_depts": 3,
    "serve_chain": 5,
    "serve_variants": 2,
}


def _names(rng, prefix, n):
    """`n` distinct seed-dependent names."""
    return [f"{prefix}{i}_{rng.getrandbits(16):04x}" for i in range(n)]


def _shuffled(rng, rows):
    rows = list(rows)
    rng.shuffle(rows)
    return rows


def _chain(rng, length):
    """A chain of `length` edges over fresh node names, rows shuffled."""
    nodes = _names(rng, "n", length + 1)
    edges = [[nodes[i], nodes[i + 1]] for i in range(length)]
    return nodes, _shuffled(rng, edges)


def employees(rng, n_emps, n_depts):
    """Emp(name, dept) and Dept(dept, mgr) with every dept present."""
    depts = _names(rng, "d", n_depts)
    mgrs = _names(rng, "m", n_depts)
    emps = [[name, rng.choice(depts)] for name in _names(rng, "e", n_emps)]
    return {"Emp": emps, "Dept": [list(p) for p in zip(depts, mgrs)]}


def cli_bulk(seed, size):
    """Sources for the three `dexcli` processes of one cli-bulk iteration."""
    rng = random.Random(f"cli-bulk/{seed}")
    e17 = {"Emp": [[n] for n in _names(rng, "e", size["e17_emps"])]}
    emp = employees(rng, size["emp_emps"], size["emp_depts"])
    names = _names(rng, "w", size["egd_emps"])
    bosses = _names(rng, "b", size["egd_emps"])
    egd = {
        "Emp": [[n] for n in names],
        "Boss": _shuffled(rng, [list(p) for p in zip(names, bosses)]),
    }
    return {"e17": e17, "emp": emp, "egd": egd}


def durable_rounds(seed, size):
    rng = random.Random(f"durable-rounds/{seed}")
    nodes, edges = _chain(rng, size["chain"])
    return {"nodes": nodes, "source": {"Edge": edges}}


def serve_mix(seed, size):
    """Request bodies for the four rotating serve-mix requests, in
    `serve_variants` seed-dependent variants each (plus the chain's
    nodes, which the persist oracle needs)."""
    rng = random.Random(f"serve-mix/{seed}")
    variants = []
    for _ in range(size["serve_variants"]):
        copy = {"A": [[n] for n in _names(rng, "a", size["copy_rows"])]}
        emp = employees(rng, size["serve_emps"], size["serve_depts"])
        nodes, edges = _chain(rng, size["serve_chain"])
        variants.append(
            {
                "nodes": nodes,
                "copy": {"source": copy},
                "exchange": {"source": emp},
                # GetPut: putting back the view of `emp` must return `emp`.
                "put": {"source": emp, "target": {"Worker": expected_workers(emp)}},
                "persist": {"source": {"Edge": edges}, "persist": True},
            }
        )
    return variants


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, separators=(",", ":"))


# ---------------------------------------------------------------- oracles
#
# Each oracle takes a decoded output instance (a dict of relation -> rows,
# nulls as {"null": id}) and raises OracleError on the first mismatch.


class OracleError(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise OracleError(msg)


def _is_null(v):
    return isinstance(v, dict) and set(v) == {"null"} and isinstance(v["null"], int)


def _null_id(v):
    _expect(_is_null(v), f"expected a labeled null, got {v!r}")
    return v["null"]


def _rows(out, rel):
    rows = out.get(rel, [])
    _expect(isinstance(rows, list), f"{rel} is not a list")
    return rows


def tuple_count(out):
    return sum(len(rows) for rows in out.values())


def check_e17(out, src):
    """Manager count = Mgr count = N, one distinct null per employee."""
    names = {r[0] for r in src["Emp"]}
    mgr = _rows(out, "Manager")
    _expect(len(mgr) == len(names), f"Manager has {len(mgr)} rows, want {len(names)}")
    _expect({r[0] for r in mgr} == names, "Manager employees differ from Emp")
    nulls = {_null_id(r[1]) for r in mgr}
    _expect(len(nulls) == len(names), f"{len(nulls)} distinct manager nulls, want {len(names)}")
    top = _rows(out, "Mgr")
    _expect(len(top) == len(names), f"Mgr has {len(top)} rows, want {len(names)}")
    _expect({_null_id(r[0]) for r in top} == nulls, "Mgr nulls differ from Manager nulls")
    _expect(set(out) <= {"Manager", "Mgr"}, f"unexpected relations {sorted(out)}")


def expected_workers(src):
    mgr_of = {d: m for d, m in src["Dept"]}
    return [[n, d, mgr_of[d]] for n, d in src["Emp"]]


def check_workers(out, src):
    """Each Worker gets its department's manager."""
    want = sorted(map(tuple, expected_workers(src)))
    got = sorted(map(tuple, _rows(out, "Worker")))
    _expect(len(got) == len(want), f"Worker has {len(got)} rows, want {len(want)}")
    _expect(got == want, "Worker rows differ from the Emp/Dept join")
    _expect(set(out) <= {"Worker"}, f"unexpected relations {sorted(out)}")


def check_egd(out, src):
    """Each merged Manager gets its boss; no invented null survives."""
    want = sorted(map(tuple, src["Boss"]))
    got = _rows(out, "Manager")
    _expect(all(not _is_null(v) for r in got for v in r), "a Manager null survived the merge")
    _expect(sorted(map(tuple, got)) == want, "Manager rows differ from Boss")


def reach_tuples(length):
    """Tuples the reach chase derives from a chain of `length` edges."""
    return length + length * (length + 1) // 2 + length


def check_reach(out, nodes):
    """Path count = L(L+1)/2, Hop count = L and E count = L, exactly the
    chain's edges, its transitive closure and one invented hop per start."""
    length = len(nodes) - 1
    pos = {n: i for i, n in enumerate(nodes)}
    e = _rows(out, "E")
    _expect(len(e) == length, f"E has {len(e)} rows, want {length}")
    _expect(all(pos[y] == pos[x] + 1 for x, y in e), "E is not the chain")
    path = _rows(out, "Path")
    want = length * (length + 1) // 2
    _expect(len(path) == want, f"Path has {len(path)} rows, want {want}")
    pairs = {(pos[x], pos[y]) for x, y in path}
    _expect(len(pairs) == want and all(i < j for i, j in pairs), "Path is not the closure")
    hop = _rows(out, "Hop")
    _expect(len(hop) == length, f"Hop has {len(hop)} rows, want {length}")
    _expect({pos[r[0]] for r in hop} == set(range(length)), "Hop starts differ from the chain")
    _expect(len({_null_id(r[1]) for r in hop}) == length, "Hop nulls are not distinct")


def check_reach_prefix(out, nodes):
    """A budget-stopped chase: E is complete, Path is a strict subset of
    the closure, every Hop start is a chain node."""
    length = len(nodes) - 1
    pos = {n: i for i, n in enumerate(nodes)}
    _expect(len(_rows(out, "E")) == length, "partial E is incomplete")
    path = _rows(out, "Path")
    _expect(all(pos[x] < pos[y] for x, y in path), "partial Path leaves the closure")
    _expect(len(path) < length * (length + 1) // 2, "partial Path is already complete")
    _expect(all(r[0] in pos for r in _rows(out, "Hop")), "partial Hop starts off the chain")


def check_same_instance(out, want):
    """Set equality per relation (rows are order-free)."""
    rels = {r for r, rows in out.items() if rows} | {r for r, rows in want.items() if rows}
    for rel in rels:
        got = sorted(json.dumps(r) for r in out.get(rel, []))
        exp = sorted(json.dumps(r) for r in want.get(rel, []))
        _expect(got == exp, f"{rel}: {len(got)} rows differ from the {len(exp)} expected")
