"""The benchmark's own tests: deterministic generators, oracles that
reject corrupted outputs, and failure accounting.

    python3 perfbench/test_bench.py
"""

import copy
import json
import os
import stat
import sys
import tempfile
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402
import run  # noqa: E402


def e17_output(src):
    """The universal solution of the E17 mapping, built by hand."""
    names = [r[0] for r in src["Emp"]]
    return {
        "Manager": [[n, {"null": i}] for i, n in enumerate(names)],
        "Mgr": [[{"null": i}] for i in range(len(names))],
    }


def reach_output(nodes):
    length = len(nodes) - 1
    return {
        "E": [[nodes[i], nodes[i + 1]] for i in range(length)],
        "Path": [[nodes[i], nodes[j]] for i in range(length) for j in range(i + 1, length + 1)],
        "Hop": [[nodes[i], {"null": i}] for i in range(length)],
    }


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (gen.cli_bulk, gen.durable_rounds, gen.serve_mix):
            self.assertEqual(make(7, gen.SMOKE), make(7, gen.SMOKE))
            self.assertNotEqual(make(7, gen.SMOKE), make(8, gen.SMOKE))

    def test_sizes(self):
        srcs = gen.cli_bulk(1, gen.SMOKE)
        self.assertEqual(len(srcs["e17"]["Emp"]), gen.SMOKE["e17_emps"])
        self.assertEqual(len(srcs["emp"]["Dept"]), gen.SMOKE["emp_depts"])
        self.assertEqual(len(srcs["egd"]["Boss"]), gen.SMOKE["egd_emps"])
        chain = gen.durable_rounds(1, gen.SMOKE)
        self.assertEqual(len(chain["source"]["Edge"]), gen.SMOKE["chain"])


class Oracles(unittest.TestCase):
    def assertRejects(self, check, out):
        with self.assertRaises(gen.OracleError):
            check(out)

    def test_e17(self):
        src = gen.cli_bulk(1, gen.SMOKE)["e17"]
        good = e17_output(src)
        gen.check_e17(good, src)
        shared = copy.deepcopy(good)
        shared["Manager"][1][1] = {"null": 0}
        self.assertRejects(lambda o: gen.check_e17(o, src), shared)
        short = copy.deepcopy(good)
        short["Mgr"].pop()
        self.assertRejects(lambda o: gen.check_e17(o, src), short)

    def test_workers(self):
        src = gen.cli_bulk(1, gen.SMOKE)["emp"]
        good = {"Worker": gen.expected_workers(src)}
        gen.check_workers(good, src)
        wrong = copy.deepcopy(good)
        wrong["Worker"][0][2] = "somebody else"
        self.assertRejects(lambda o: gen.check_workers(o, src), wrong)

    def test_egd(self):
        src = gen.cli_bulk(1, gen.SMOKE)["egd"]
        good = {"Manager": copy.deepcopy(src["Boss"])}
        gen.check_egd(good, src)
        unmerged = copy.deepcopy(good)
        unmerged["Manager"][0][1] = {"null": 3}
        self.assertRejects(lambda o: gen.check_egd(o, src), unmerged)

    def test_reach(self):
        nodes = gen.durable_rounds(1, gen.SMOKE)["nodes"]
        good = reach_output(nodes)
        gen.check_reach(good, nodes)
        self.assertEqual(gen.tuple_count(good), gen.reach_tuples(len(nodes) - 1))
        missing = copy.deepcopy(good)
        missing["Path"].pop()
        self.assertRejects(lambda o: gen.check_reach(o, nodes), missing)
        # A complete closure is not a budget-stopped prefix.
        self.assertRejects(lambda o: gen.check_reach_prefix(o, nodes), good)
        gen.check_reach_prefix(missing, nodes)

    def test_serve_responses(self):
        variant = gen.serve_mix(1, gen.SMOKE)[0]
        src = variant["put"]["source"]
        body = b'{"source": %s}' % json.dumps(src).encode()
        self.assertEqual(run.check_response(variant, "put", 200, body), gen.tuple_count(src))
        self.assertRejects(lambda b: run.check_response(variant, "put", 200, b), b'{"source": {}}')
        self.assertRejects(lambda b: run.check_response(variant, "put", 429, b), body)


class Accounting(unittest.TestCase):
    def test_unexpected_exit_code_counts_as_failed(self):
        with tempfile.TemporaryDirectory() as root:
            fake = os.path.join(root, "dexcli")
            with open(fake, "w") as f:
                f.write("#!/bin/sh\nexit 5\n")
            os.chmod(fake, os.stat(fake).st_mode | stat.S_IEXEC)
            args = types.SimpleNamespace(seed=1, seconds=0, trace=0, smoke=True, workload="t")
            r = run.Run(args, root, fake, None)
            step = run.Step("chase", ["chase"], 0, lambda proc, path: (1, 0),
                            lambda out: [], lambda report, out: None)
            proc, res = run.run_step(r, step, {})
            self.assertEqual(proc.rc, 5)
            self.assertIsNone(res)
            self.assertEqual((r.failed, r.attempted), (1, 1))
            r.close()


if __name__ == "__main__":
    unittest.main()
