"""Unit tests of run.py's contract checks and of the benchmark's metadata.

Run with `python3 perfbench/run.py --self-test` (which also runs the C++
tests) or `python3 -m unittest discover -s perfbench/tests`.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (the module under test sits one directory up)

BENCH = run.load_json(run.ROOT / "BENCHMARK.json")
MANIFEST = run.load_json(run.HERE / "manifest.json")


def result_line(trace=False, **overrides):
    section = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    result = {
        "correct": True,
        "attempted": 360,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]}
                    for m in section},
    }
    result.update(overrides)
    return json.dumps(result)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for name in ["throughput_pps", "live.fit_ms_p50", "a-b", "9x",
                     "x" * 64]:
            self.assertTrue(run.NAME_RE.match(name), name)
        for name in ["", "_lead", ".lead", "has space", "slash/x", "x" * 65,
                     "ünï", "p99%"]:
            self.assertFalse(run.NAME_RE.match(name), name)
        for unit in ["ms", "s", "1/s", "count", "packets/s", "%", "MB"]:
            self.assertTrue(run.UNIT_RE.match(unit), unit)
        for unit in ["", "per second", "x" * 17, "ms;"]:
            self.assertFalse(run.UNIT_RE.match(unit), unit)

    def test_benchmark_file_passes_its_own_checks(self):
        run.check_benchmark_file(BENCH)

    def test_benchmark_file_limits(self):
        for why in (w["why"] for w in BENCH["workloads"]):
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)
        self.assertLessEqual(len(BENCH["workloads"]), 8)
        self.assertGreaterEqual(len(BENCH["workloads"]), 2)
        self.assertLessEqual(len(BENCH["end_to_end"]), 16)
        self.assertLessEqual(len(BENCH["per_layer"]), 128)
        self.assertIn(BENCH["run_seconds"], range(1, 61))
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        # setup_s carries the largest bound.
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_checks_reject_bad_files(self):
        for mutate in (
                lambda b: b["end_to_end"].append(dict(b["end_to_end"][0])),
                lambda b: b["end_to_end"][0].update(name="bad name"),
                lambda b: b["per_layer"][0].update(unit="per second"),
                lambda b: b["end_to_end"][0].update(bound=0.3),
                lambda b: b["end_to_end"].pop(
                    [m["name"] for m in b["end_to_end"]].index("setup_s"))):
            bench = copy.deepcopy(BENCH)
            mutate(bench)
            with self.assertRaises(run.BenchError):
                run.check_benchmark_file(bench)


class ResultSchema(unittest.TestCase):
    def test_accepts_complete_results(self):
        run.validate_result(result_line(), BENCH, trace=False)
        run.validate_result(result_line(trace=True), BENCH, trace=True)
        run.validate_result(result_line(correct=False, failed=3), BENCH,
                            trace=False)

    def test_rejects_wrong_mode(self):
        with self.assertRaises(run.BenchError):
            run.validate_result(result_line(trace=True), BENCH, trace=False)

    def test_rejects_malformed_results(self):
        good = json.loads(result_line())
        first = next(iter(good["metrics"]))
        cases = {
            "not json": "{",
            "extra key": json.dumps({**good, "extra": 1}),
            "missing key": json.dumps(
                {k: v for k, v in good.items() if k != "failed"}),
            "bool count": json.dumps({**good, "attempted": True}),
            "float count": json.dumps({**good, "failed": 0.5}),
            "zero attempted": json.dumps({**good, "attempted": 0}),
            "string correct": json.dumps({**good, "correct": "yes"}),
        }
        metrics_cases = {
            "missing metric": lambda m: m.pop(first),
            "extra metric": lambda m: m.update(x={"value": 1, "unit": "s"}),
            "wrong unit": lambda m: m[first].update(unit="furlongs"),
            "null value": lambda m: m[first].update(value=None),
            "bool value": lambda m: m[first].update(value=True),
            "extra field": lambda m: m[first].update(p=1),
        }
        for label, mutate in metrics_cases.items():
            bad = copy.deepcopy(good)
            mutate(bad["metrics"])
            cases[label] = json.dumps(bad)
        cases["nan value"] = result_line().replace("1.25", "NaN", 1)
        for label, line in cases.items():
            with self.subTest(label), self.assertRaises(run.BenchError):
                run.validate_result(line, BENCH, trace=False)


class Manifest(unittest.TestCase):
    def test_covers_every_workload_and_metric(self):
        self.assertEqual(set(MANIFEST["workloads"]),
                         {w["name"] for w in BENCH["workloads"]})
        names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        self.assertEqual(set(MANIFEST["metrics"]), names)
        workloads = set(MANIFEST["workloads"])
        for name, meta in MANIFEST["metrics"].items():
            self.assertTrue(set(meta["workloads"]) <= workloads, name)

    def test_layer_mapping_names_real_metrics(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        layers = {meta["layer"] for meta in MANIFEST["metrics"].values()}
        self.assertTrue(set(MANIFEST["layer_moves"]) <= layers)
        for targets in MANIFEST["layer_moves"].values():
            for target in targets:
                metric, workload = target.split("@")
                self.assertIn(metric, e2e)
                self.assertIn(workload, MANIFEST["workloads"])

    def test_open_loop_workload_has_a_speedup(self):
        for name, w in MANIFEST["workloads"].items():
            self.assertEqual("speedup" in w, w["loop"] == "open", name)


if __name__ == "__main__":
    unittest.main()
