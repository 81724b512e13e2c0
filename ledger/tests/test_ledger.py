"""Tests of the benchmark's own command: the comparison rules, the metric
catalogue against BENCHMARK.json, and a smoke run of every workload.

    python3 -m unittest discover -s ledger/tests

The smoke test builds `ledger` and `repro` in release mode through run.py
(into CARGO_TARGET_DIR, or `.bench_build` in the checkout) and takes about
a minute.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def around(centre, spread, n=10):
    """`n` values evenly spread over centre * (1 ± spread / 2)."""
    return [centre * (1 + spread * (i / (n - 1) - 0.5)) for i in range(n)]


class Verdicts(unittest.TestCase):
    def test_a_move_inside_the_bound_is_ok(self):
        self.assertEqual(run.verdict(LOWER, around(1.0, 0.02), around(1.05, 0.02)), "ok")
        self.assertEqual(run.verdict(HIGHER, around(1.0, 0.02), around(0.95, 0.02)), "ok")

    def test_a_move_beyond_the_bound_in_the_bad_direction_regresses(self):
        self.assertEqual(run.verdict(LOWER, around(1.0, 0.02), around(1.15, 0.02)), "regressed")
        self.assertEqual(run.verdict(HIGHER, around(1.0, 0.02), around(0.85, 0.02)), "regressed")

    def test_a_move_in_the_good_direction_never_regresses(self):
        self.assertEqual(run.verdict(LOWER, around(1.0, 0.02), around(0.5, 0.02)), "ok")
        self.assertEqual(run.verdict(HIGHER, around(1.0, 0.02), around(2.0, 0.02)), "ok")

    def test_quartile_ranges_wider_than_the_bound_are_unresolved(self):
        self.assertEqual(run.verdict(LOWER, around(1.0, 0.5), around(1.0, 0.02)), "unresolved")
        self.assertEqual(run.verdict(LOWER, around(1.0, 0.02), around(1.0, 0.5)), "unresolved")

    def test_every_run_better_than_every_parent_run_resolves_a_wide_spread(self):
        self.assertEqual(run.verdict(LOWER, around(1.0, 0.5), around(0.5, 0.3)), "ok")
        self.assertEqual(run.verdict(HIGHER, around(1.0, 0.5), around(2.0, 0.3)), "ok")

    def test_setup_has_an_absolute_floor(self):
        # 3 ms -> 15 ms is five times worse but inside the 20 ms floor.
        self.assertEqual(run.verdict(SETUP, around(0.003, 0.02), around(0.015, 0.02)), "ok")
        self.assertEqual(run.verdict(SETUP, around(0.003, 0.02), around(0.030, 0.02)), "regressed")
        # Above the floor the relative bound rules: 25 % of 1 s.
        self.assertEqual(run.verdict(SETUP, around(1.0, 0.02), around(1.2, 0.02)), "ok")
        self.assertEqual(run.verdict(SETUP, around(1.0, 0.02), around(1.3, 0.02)), "regressed")
        # The floor is for set-up only.
        self.assertEqual(run.verdict(LOWER, around(0.003, 0.02), around(0.015, 0.02)), "regressed")

    def test_quartile_range_is_the_drivers(self):
        values = [3.1, 3.4, 3.2, 3.3, 3.25, 3.9, 3.15, 3.35, 3.22, 3.31]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartile_range(values), q[2] - q[0])
        self.assertEqual(run.quartile_range([1.0]), 0.0)


class StopTree(unittest.TestCase):
    def test_a_stopped_run_leaves_no_process_behind(self):
        # A parent that starts a child, as `ledger` starts `repro serve`.
        sleeper = "import time; time.sleep(60)"
        parent = f"import subprocess, sys; subprocess.Popen([sys.executable, '-c', {sleeper!r}]); {sleeper}"
        proc = subprocess.Popen([sys.executable, "-c", parent])
        deadline = time.monotonic() + 10
        while not run.descendants(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        below = run.descendants(proc.pid)
        self.assertEqual(len(below), 1)
        run.stop_tree(proc)
        self.assertIsNotNone(proc.returncode)
        for pid in below:
            # Gone, or ended and waiting for init to reap it.
            self.assertEqual((run.state_and_parent(pid) or ("Z",))[0], "Z")


class Catalogue(unittest.TestCase):
    """BENCHMARK.json against the contract's limits; against the names the
    built binary declares in `Smoke`."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_fits_the_contract(self):
        bench = run.declared()
        self.assertEqual(
            sorted(bench), ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        )
        self.assertEqual(bench["paths"], ["ledger"])
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        self.assertTrue(1 <= len(bench["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(bench["per_layer"]) <= 128)
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
        self.assertEqual(len(names), len(set(names)), "a name is used once")
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in bench["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in bench["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in bench["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup], [("s", "lower")])
        self.assertEqual(max(m["bound"] for m in bench["end_to_end"]), setup[0]["bound"])


class Smoke(unittest.TestCase):
    """Every workload, timed and traced, at test scale."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.target_dir(), exist_ok=True)
        cls.dir = tempfile.TemporaryDirectory(dir=run.target_dir())
        cls.sets = {}
        cls.seconds = []
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            out = os.path.join(cls.dir.name, f"{tag}.json")
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(HERE), "run.py"),
                 "--workload", "all", "--smoke", "--seed", str(seed), "--out", out],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            cls.seconds.append(time.monotonic() - start)
            if proc.returncode != 0:
                raise AssertionError(f"smoke run failed:\n{proc.stderr[-4000:]}")
            with open(out) as f:
                cls.sets[tag] = json.load(f)["runs"]

    @classmethod
    def tearDownClass(cls):
        cls.dir.cleanup()

    def test_names_and_units_printed_are_the_ones_declared(self):
        bench = run.declared()
        runs = self.sets["a"]
        self.assertEqual(
            sorted({(r["workload"], r["trace"]) for r in runs}),
            sorted((w["name"], t) for w in bench["workloads"] for t in (0, 1)),
        )
        for r in runs:
            section = bench["per_layer" if r["trace"] else "end_to_end"]
            self.assertEqual(
                {n: m["unit"] for n, m in r["metrics"].items()},
                {m["name"]: m["unit"] for m in section},
            )
        # The binary's own catalogue, direction included.
        cat = json.loads(subprocess.run(
            [os.path.join(run.target_dir(), "release", "ledger"), "--catalogue"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout)
        strip = lambda ms: [{k: m[k] for k in ("name", "unit", "better")} for m in ms]
        self.assertEqual(cat["end_to_end"], strip(bench["end_to_end"]))
        self.assertEqual(cat["per_layer"], bench["per_layer"])

    def test_nothing_fails_and_end_to_end_metrics_are_never_zero(self):
        for runs in self.sets.values():
            for r in runs:
                self.assertTrue(r["correct"], r["workload"])
                self.assertEqual(r["failed"], 0, r["workload"])
                self.assertGreaterEqual(r["attempted"], 1)
                if not r["trace"]:
                    for name, m in r["metrics"].items():
                        self.assertGreater(m["value"], 0, f"{r['workload']} {name}")

    def exact(self, tag):
        names = run.exact_names()
        return {
            (r["workload"], n): r["metrics"][n]["value"]
            for r in self.sets[tag] if r["trace"] for n in names
        }

    def test_exact_counts_repeat_for_a_seed_and_differ_between_seeds(self):
        a, b, c = self.exact("a"), self.exact("b"), self.exact("c")
        self.assertEqual(a, b)
        for workload in ("fig7-flat", "fig7-cached", "fig3-pdom", "bvh-gi"):
            self.assertNotEqual(
                [v for (w, _), v in a.items() if w == workload],
                [v for (w, _), v in c.items() if w == workload],
                f"{workload}: seed 2 reproduced seed 1's counts",
            )

    def test_the_bypass_workload_bypasses(self):
        a = self.exact("a")
        self.assertEqual(a[("fig3-pdom", "core.formation.spawn_instr")], 0)
        self.assertGreater(a[("fig7-flat", "core.formation.spawn_instr")], 0)
        self.assertGreater(a[("bvh-gi", "core.formation.spawn_instr")], 0)
        self.assertGreater(a[("fig7-cached", "mem.l1.hits")], 0)
        self.assertEqual(a[("fig7-flat", "mem.l1.hits")], 0)

    def test_a_smoke_run_is_short(self):
        # The first includes the build; the others are the run itself.
        self.assertLess(min(self.seconds), 30)


if __name__ == "__main__":
    unittest.main()
