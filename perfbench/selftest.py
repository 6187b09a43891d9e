"""Self-tests of the benchmark itself (no program run needed).

    python3 perfbench/selftest.py

Covers the span self-time arithmetic on synthetic spans, the correctness
gate accepting pinned outputs and rejecting corrupted ones, and the metric
names and units printed matching BENCHMARK.json.
"""
from __future__ import annotations

import json
import unittest
from pathlib import Path

import run
import workloads
from layertrace import Span, Tracer, covered, layer_metrics, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CHERN = {1.0: 1, 3.0: 0}


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_children_is_clipped_to_parent(self):
        # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks out
        self.assertAlmostEqual(covered([(1, 3), (2, 5), (8, 12)], 0, 10), 6.0)
        spans = [Span(0, "cli.main", 0.0, 10.0, None),
                 Span(1, "models.parse_model", 1.0, 3.0, 0),
                 Span(2, "linalg.eigh", 2.0, 5.0, 0, {"n3": 8}),
                 Span(3, "linalg.eigh", 8.0, 12.0, 0, {"n3": 27}),
                 Span(4, "linalg.svd", 1.5, 2.5, 1, {"n3": 1})]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 1.0)
        self.assertAlmostEqual(own[2], 3.0)

        m = layer_metrics(spans)
        self.assertAlmostEqual(m["cli.main.self_s"], 4.0)
        self.assertAlmostEqual(m["linalg.eigh.self_s"], 7.0)
        self.assertEqual(m["linalg.eigh.calls"], 2)
        self.assertEqual(m["linalg.eigh.n3"], 35)
        self.assertEqual(m["linalg.svd.n3"], 1)
        self.assertEqual(m["localizer.assemble_localizer.windowed_frac"], 0.0)

    def test_pool_work_is_parented_to_the_calling_span(self):
        tracer = Tracer()

        def leaf(x):
            return x

        def pool(fn, items, threads=None):
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=2) as ex:
                return list(ex.map(fn, items))

        traced_leaf = tracer.wrap("grading.gap", leaf)
        traced_pool = tracer.wrap("verification.parallel_map", pool)
        self.assertEqual(traced_pool(traced_leaf, [1, 2, 3]), [1, 2, 3])
        (pool_span,) = [s for s in tracer.spans if s.name.endswith("parallel_map")]
        leaves = [s for s in tracer.spans if s.name == "grading.gap"]
        self.assertEqual(len(leaves), 3)
        self.assertTrue(all(s.parent == pool_span.sid for s in leaves))


class Gate(unittest.TestCase):
    refs = workloads.load_references()

    def check(self, workload, key, rc=None, stdout=None, seed=0):
        ref = self.refs[workload][key]
        op = workloads.Op(key, tuple(ref["argv"]))
        problems, _ = workloads.check(
            workload, op, ref["exit"] if rc is None else rc,
            ref["stdout"] if stdout is None else stdout, self.refs, seed, CHERN)
        return problems

    def test_pinned_outputs_pass(self):
        for workload, entries in self.refs.items():
            for key in entries:
                self.assertEqual(self.check(workload, key), [], (workload, key))

    def test_lattice_corruptions_are_rejected(self):
        key = "qwz:L=16,m=1.0"
        report = json.loads(self.refs["lattice-triangle"][key]["stdout"])
        self.assertNotEqual(self.check("lattice-triangle", key, rc=0), [])
        self.assertNotEqual(self.check("lattice-triangle", key, seed=7), [])
        for path, value in ((("indices", "localizer"), 1),
                            (("indices", "chern_bz"), 0),
                            (("certificate", "admissible"), False),
                            (("certificate", "kappa"),
                             report["certificate"]["kappa"] * (1 + 1e-4))):
            bad = json.loads(json.dumps(report))
            bad[path[0]][path[1]] = value
            self.assertNotEqual(
                self.check("lattice-triangle", key, stdout=json.dumps(bad)), [],
                path)

    def test_chern_is_checked_against_the_frozen_oracle(self):
        ref = self.refs["lattice-triangle"]["qwz:L=20,m=3.0"]
        op = workloads.Op("qwz:L=20,m=3.0", tuple(ref["argv"]))
        problems, _ = workloads.check("lattice-triangle", op, ref["exit"],
                                      ref["stdout"], self.refs, 0, {3.0: 1})
        self.assertTrue(any("oracles.json" in p for p in problems))

    def test_sweep_and_suite_corruptions_are_rejected(self):
        sweep = self.refs["ladder-sweep"]["sweep"]["stdout"]
        self.assertNotEqual(self.check("ladder-sweep", "sweep",
                                       stdout=sweep.replace(",True,", ",False,", 1)), [])
        lines = sweep.splitlines()
        flipped = "\n".join([lines[0], lines[1][:-1] + "0"] + lines[2:]) + "\n"
        self.assertNotEqual(self.check("ladder-sweep", "sweep", stdout=flipped), [])
        suite = self.refs["property-suites"]["0"]["stdout"]
        self.assertNotEqual(self.check("property-suites", "0",
                                       stdout=suite.replace("0 failed", "1 failed")), [])
        self.assertNotEqual(self.check("property-suites", "0",
                                       stdout=suite.replace("PASS", "FAIL", 1)), [])
        self.assertNotEqual(self.check("property-suites", "0", rc=1), [])

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            a, b = workloads.passes(workload, 5), workloads.passes(workload, 5)
            self.assertEqual([next(a) for _ in range(3)], [next(b) for _ in range(3)])


class MetricNames(unittest.TestCase):
    spec = json.loads(BENCHMARK.read_text())

    def test_end_to_end_names_units_and_direction(self):
        declared = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        result = {"setup_s": 1.0, "run_s": 2.0, "peak_rss_mb": 3.0,
                  "ops": [{"seconds": 1.0, "items": 1, "mismatches": []}]}
        self.assertEqual(set(run.end_to_end_values(result)), set(run.END_TO_END))

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.per_layer_units())
        result = {"layers": layer_metrics([]),
                  "trace": {k: 0.0 for k in ("untraced_pass_s", "traced_pass_s",
                                             "overhead_s", "span_cost_s", "spans")}}
        self.assertEqual(set(run.per_layer_values(result)),
                         set(run.per_layer_units()))

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         workloads.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
