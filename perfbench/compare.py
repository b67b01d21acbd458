#!/usr/bin/env python3
"""Compare two result sets of the dex benchmark: a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines `run.py --record FILE` appends, one run each:
{"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}. Runs of the
two sides are paired by workload and seed.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither) and
a verdict against the metric's bound in BENCHMARK.json:

  better        the change won at least 9 in 10 pairs and the medians
                differ by more than the parent's quartile distance
  worse         the change's median is worse than the parent's by more
                than the bound
  within-bound  neither, with both sides' spread inside the bound
  unresolved    a side's spread (quartile distance over median) is wider
                than the bound, and the change does not read better
                (or worse) than the parent on every run

It also shows the unbounded figures runs record (`p99_ms`, `error_rate`)
with medians and pair wins but no verdict. For traced runs it flags every
per-layer time whose median grew by more than 10%. The exit code is 1
when any verdict is `worse`.
"""

import json
import os
import statistics
import sys

LAYER_GROWTH_FLAG = 0.10

# Figures run.py records beside the bounded metrics: (name, unit, lower
# is better). They get medians and pair wins, but no verdict.
UNBOUNDED = (("p99_ms", "ms", True), ("error_rate", "ratio", True))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                metrics = dict(rec["result"]["metrics"])
                metrics.update(rec.get("unbounded", {}))
                runs.setdefault(key, {})[rec["seed"]] = metrics
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, pairs, lower_is_better, bound):
    """(verdict, share of pairs won) for one metric."""
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if lower_is_better:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    else:
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    wide = max(spread(parent), spread(change)) > bound
    if share >= 0.9 and sign * (pm - cm) > (p3 - p1) and (not wide or all_better):
        return "better", share
    if sign * (cm - pm) > bound * abs(pm):
        return ("unresolved" if wide and not all_worse else "worse"), share
    if wide:
        return "unresolved", share
    return "within-bound", share


def show(name, parent, change, unit, tail):
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    print(f"  {name:24} parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  change {cm:.5g} "
          f"[{c1:.5g}, {c3:.5g}] {unit}  {tail}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    worse = False
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        p_runs, c_runs = parent.get((workload, 0), {}), change.get((workload, 0), {})
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"== {workload}: {len(p_runs)} parent / {len(c_runs)} change runs, {len(seeds)} pairs")
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r[name]["value"] for r in p_runs.values() if name in r]
            c = [r[name]["value"] for r in c_runs.values() if name in r]
            if not p or not c:
                continue
            pairs = [(p_runs[s][name]["value"], c_runs[s][name]["value"]) for s in seeds]
            v, share = verdict(p, c, pairs, m["better"] == "lower", m["bound"])
            worse |= v == "worse"
            show(name, p, c, m["unit"], f"won {share:.0%}  {v}")
        for name, unit, lower in UNBOUNDED:
            p = [r[name]["value"] for r in p_runs.values() if name in r]
            c = [r[name]["value"] for r in c_runs.values() if name in r]
            if p and c:
                pairs = [(p_runs[s][name]["value"], c_runs[s][name]["value"])
                         for s in seeds if name in p_runs[s] and name in c_runs[s]]
                won = sum(1 for a, b in pairs if (a - b if lower else b - a) > 0)
                show(name, p, c, unit, f"won {won}/{len(pairs)}  (no bound)")
        p_tr, c_tr = parent.get((workload, 1), {}), change.get((workload, 1), {})
        for m in bench["per_layer"]:
            if m["unit"] not in ("s", "ms"):
                continue
            name = m["name"]
            p = [r[name]["value"] for r in p_tr.values() if name in r]
            c = [r[name]["value"] for r in c_tr.values() if name in r]
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            if pm > 0 and (cm - pm) / pm > LAYER_GROWTH_FLAG:
                print(f"  FLAG {name}: self time {pm:.5g} -> {cm:.5g} {m['unit']} "
                      f"(+{(cm - pm) / pm:.0%})")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
