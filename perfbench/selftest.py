"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check that the printed metric names match BENCHMARK.json and the naming
rules, that each checker rejects corrupted outputs, that the layer trace
computes self time and restores what it wraps, and that a reduced-size run of
every workload finishes in seconds.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cactiq  # noqa: E402,F401
import cactiq.cli  # noqa: E402,F401
import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, per_layer_names  # noqa: E402
from pace import REFERENCE_PASS_S, Pace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def one_round(workload, seed=3):
    state = workload.setup(seed)
    workload.before_round()
    results = {}
    for label, fn in workload.ops(state, dict(os.environ)):
        try:
            value = fn()
        except workloads.OpFailed:
            continue
        results[label] = value.value if isinstance(value, workloads.Timed) else value
    return workload.collect(state, results)


class TestBenchmarkFile(unittest.TestCase):
    def test_fixed_form(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         ["census", "claims", "exact"])
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in BENCH["end_to_end"])},
                      BENCH["end_to_end"])
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in BENCH["per_layer"]], per_layer_names())
        self.assertLessEqual(len(json.dumps(BENCH)), 64 * 1024)


class TestRuns(unittest.TestCase):
    """Reduced-size runs of every workload, untraced and traced."""

    def _last_json(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_small_runs(self):
        want = {0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
                1: {m["name"]: m["unit"] for m in BENCH["per_layer"]}}
        for name in ("census", "claims", "exact"):
            for trace in (0, 1):
                t0 = time.perf_counter()
                out = self._last_json(run_bench(name, trace))
                elapsed = time.perf_counter() - t0
                with self.subTest(workload=name, trace=trace):
                    self.assertLess(elapsed, 60)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(out["correct"], True)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                                     want[trace])
                    if trace == 0:
                        for v in out["metrics"].values():
                            self.assertGreater(v["value"], 0)
                    if name == "census":
                        # one failure per block: the order-16 family-scale op
                        # is stopped by its cap; a block is two rounds of 17
                        # ops plus the two family-scale ops
                        self.assertEqual(out["failed"] * 36, out["attempted"])
                    else:
                        self.assertEqual(out["failed"], 0)

    def test_bare_directory_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
            proc = run_bench("census", 0, cwd=tmp,
                             script=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class TestCheckers(unittest.TestCase):
    """Each checker accepts real outputs and rejects corrupted ones."""

    @classmethod
    def setUpClass(cls):
        cls.census_spec = workloads.Census(max_n=7, filter_n=7, ladder=())
        cls.census = one_round(cls.census_spec)
        cls.claims_spec = workloads.Claims(ns=(6, 7), trials=5)
        cls.claims = one_round(cls.claims_spec)
        cls.exact_spec = workloads.Exact(formula_max_n=10, ladder=(8,), tie_n=8,
                                         tie_samples=21)
        cls.exact = one_round(cls.exact_spec)

    def test_real_outputs_pass(self):
        self.assertEqual(checks.check_census(self.census, self.census_spec), [])
        self.assertEqual(checks.check_claims(self.claims, self.claims_spec), [])
        self.assertEqual(checks.check_exact(self.exact, self.exact_spec), [])

    def test_census_count_off_by_one(self):
        out = copy.deepcopy(self.census)
        out["enumerate"][6].pop()
        self.assertTrue(checks.check_census(out, self.census_spec))

    def test_census_duplicate_class(self):
        out = copy.deepcopy(self.census)
        lines = out["enumerate"][6]
        g = checks.parse_graph6(lines[0])
        relabelled = checks.nx.relabel_nodes(g, {v: 5 - v for v in g})
        lines[1] = checks.nx.to_graph6_bytes(relabelled, header=False).decode().strip()
        self.assertTrue(checks.check_census(out, self.census_spec))

    def test_census_non_cactus(self):
        out = copy.deepcopy(self.census)
        k4_plus_path = checks.nx.complete_graph(4)
        k4_plus_path.add_edges_from([(3, 4), (4, 5)])
        out["enumerate"][6][0] = checks.nx.to_graph6_bytes(
            k4_plus_path, header=False).decode().strip()
        problems = checks.check_census(out, self.census_spec)
        self.assertTrue(any("not a cactus" in p for p in problems))

    def test_census_wrong_filter(self):
        out = copy.deepcopy(self.census)
        out["matching"][3].append(out["matching"][2].pop())
        self.assertTrue(checks.check_census(out, self.census_spec))
        out = copy.deepcopy(self.census)
        out["pendants"][1].append(out["pendants"][1][0])
        self.assertTrue(checks.check_census(out, self.census_spec))

    def _report(self, out, i):
        claim, n, params, rc, text = out["reports"][i]
        return claim, n, params, rc, json.loads(text)

    def _put(self, out, i, report):
        claim, n, params, rc, _ = out["reports"][i]
        out["reports"][i] = (claim, n, params, rc, json.dumps(report))

    def test_claims_swapped_maximizer(self):
        out = copy.deepcopy(self.claims)
        a = self._report(out, 0)[4]
        b = self._report(out, 1)[4]
        a["observed_maximizer"], b["observed_maximizer"] = \
            b["observed_maximizer"], a["observed_maximizer"]
        self._put(out, 0, a)
        self._put(out, 1, b)
        self.assertTrue(checks.check_claims(out, self.claims_spec))

    def test_claims_perturbed_radius_and_size(self):
        out = copy.deepcopy(self.claims)
        r = self._report(out, 0)[4]
        r["observed_radius"] += 1e-6
        self._put(out, 0, r)
        self.assertTrue(checks.check_claims(out, self.claims_spec))
        out = copy.deepcopy(self.claims)
        last = len(out["reports"]) - 1
        r = self._report(out, last)[4]
        r["details"]["class_size"] -= 1
        self._put(out, last, r)
        self.assertTrue(checks.check_claims(out, self.claims_spec))

    def test_claims_failed_verdict(self):
        out = copy.deepcopy(self.claims)
        r = self._report(out, 2)[4]
        r["passed"] = False
        self._put(out, 2, r)
        self.assertTrue(checks.check_claims(out, self.claims_spec))

    def test_exact_perturbed_coefficient(self):
        out = copy.deepcopy(self.exact)
        label, coeffs, q = out["formula_samples"][0]
        coeffs[0] += 1
        self.assertTrue(checks.check_exact(out, self.exact_spec))
        out = copy.deepcopy(self.exact)
        tie = list(out["ties"][0])
        tie[5][1] += 1  # one coefficient of the first polynomial
        out["ties"][0] = tuple(tie)
        self.assertTrue(checks.check_exact(out, self.exact_spec))

    def test_exact_flipped_sign(self):
        out = copy.deepcopy(self.exact)
        tie = list(out["ties"][0])
        tie[1], tie[2] = 1, 1  # nonzero comparison that does not flip
        out["ties"][0] = tuple(tie)
        self.assertTrue(checks.check_exact(out, self.exact_spec))

    def test_exact_identity_count_and_ladder(self):
        out = copy.deepcopy(self.exact)
        rc, text = out["formulas"]
        report = json.loads(text)
        report["details"]["identities_checked"] += 1
        out["formulas"] = (rc, json.dumps(report))
        self.assertTrue(checks.check_exact(out, self.exact_spec))
        out = copy.deepcopy(self.exact)
        row = list(out["ladder"][0])
        row[3] += 1e-7
        out["ladder"][0] = tuple(row)
        self.assertTrue(checks.check_exact(out, self.exact_spec))


class TestPace(unittest.TestCase):
    def test_scale_uses_the_passes_in_an_interval(self):
        p = Pace()
        p.starts = [0.0, 1.0, 2.0, 5.0]
        p.passes = [r * REFERENCE_PASS_S for r in (1.0, 2.0, 4.0, 1.0)]
        self.assertAlmostEqual(p.scale(0.5, 2.5), 1 / 3)
        # no pass inside: the ones just before and after
        self.assertAlmostEqual(p.scale(3.0, 4.0), 2 / 5)
        with self.assertRaises(RuntimeError):
            Pace().scale(0.0, 1.0)

    def test_timer_samples_and_accounts_for_its_time(self):
        p = Pace()
        p.start()
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.1:
                pass
        finally:
            p.stop()
        self.assertGreater(len(p.passes), 5)
        self.assertEqual(p.starts, sorted(p.starts))
        self.assertAlmostEqual(p.spent_cpu, sum(p.passes))
        self.assertGreater(p.spent_wall, 0)


class TestTrace(unittest.TestCase):
    def test_self_time_counts_parallel_children_once(self):
        t = Tracer()
        t.spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 1], [1, 2.0, 6.0, 0, 2],
                   [1, 8.0, 9.0, 0, 0]]
        self.assertEqual(t.self_times(), [4.0, 3.0, 4.0, 1.0])

    def test_install_wraps_imported_names_and_uninstall_restores(self):
        orig = cactiq.verify.graph_radius
        t = Tracer()
        t.install()
        try:
            self.assertIsNot(cactiq.verify.graph_radius, orig)
            self.assertIs(cactiq.verify.graph_radius, cactiq.spectra.graph_radius)
            workloads.cli("verify", "--claim", "theorem32", "--n", "6")
        finally:
            t.uninstall()
        self.assertIs(cactiq.verify.graph_radius, orig)
        m = t.metrics()
        self.assertEqual(m["cli.main.calls"][0], 1)
        self.assertEqual(m["verify.verify_extremal.calls"][0], 1)
        self.assertEqual(m["spectra.graph_radius.calls"][0], 23)
        parents = {t.spans[i][3] for i, row in enumerate(t.spans)
                   if t.names[row[0]] == "spectra.graph_radius"}
        self.assertTrue(all(t.names[t.spans[p][0]] == "verify.verify_extremal"
                            for p in parents))


if __name__ == "__main__":
    unittest.main()
