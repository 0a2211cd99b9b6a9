#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark (perfbench/CMakeLists.txt, which builds the fbm library
from this checkout's sources) into .bench_build at the repository root, runs
the workload in its own process and checks the result line it prints
against BENCHMARK.json before printing it as the last line of standard
output. Exits non-zero, printing no result, when the build, the run or the
check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_benchmark_file(bench):
    """Checks BENCHMARK.json's own limits: names and units in their
    character sets, names used once, bounds at most 0.25, setup_s present."""
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        raise BenchError(f"names outside the charset: {bad}")
    if len(set(names)) != len(names):
        raise BenchError("a name is used more than once")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT_RE.match(m["unit"]) or m["better"] not in ("lower",
                                                               "higher"):
            raise BenchError(f"{m['name']}: bad unit or direction")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            raise BenchError(f"{m['name']}: bound outside (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("setup_s (s, lower) is required")


def expected_metrics(bench, trace):
    """Metric name -> unit the result line must carry in this mode."""
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate_result(line, bench, trace):
    """Parses the benchmark's result line and checks it against the
    contract: exactly the four keys, whole-number counts, and every metric
    of the mode (no more) as a finite number with its declared unit."""
    try:
        result = json.loads(line)
    except ValueError as e:
        raise BenchError(f"result line is not JSON: {e}") from e
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys must be exactly {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be true or false")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise BenchError(f"{key} must be a whole number")
    if result["attempted"] < 1:
        raise BenchError("attempted must be at least 1")
    metrics = result["metrics"]
    want = expected_metrics(bench, trace)
    if not isinstance(metrics, dict) or set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(want))
        raise BenchError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise BenchError(f"{name}: want {{value, unit}}")
        value = entry["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise BenchError(f"{name}: value must be a finite number")
        if entry["unit"] != want[name]:
            raise BenchError(f"{name}: unit {entry['unit']!r}, "
                             f"want {want[name]!r}")
    return result


def build(jobs):
    """Configures (once) and builds the benchmark; build output goes to
    standard error only when it fails."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs),
                  "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_workload(name, seed, seconds, trace, manifest, bench):
    """Runs one workload in its own process; returns (human lines, result
    line)."""
    workload = manifest["workloads"][name]
    cmd = [str(BUILD / "perfbench"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--workdir", str(WORK),
           "--scenario", str(HERE / "ddos.scn"),
           "--speedup", str(workload.get("speedup", 1))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name}: no result within {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: exited with {proc.returncode}")
    validate_result(lines[-1], bench, trace)
    return lines[:-1], lines[-1]


def self_test(jobs):
    """Builds and runs the C++ unit tests, then the Python ones."""
    build(jobs)
    proc = subprocess.run(["cmake", "--build", str(BUILD), "-j", str(jobs),
                           "--target", "perfbench_tests"], cwd=ROOT)
    if proc.returncode != 0:
        return 1
    if subprocess.run([str(BUILD / "perfbench_tests")], cwd=ROOT).returncode:
        return 1
    return subprocess.run([sys.executable, "-m", "unittest", "discover",
                           "-s", str(HERE / "tests"), "-v"],
                          cwd=ROOT).returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    jobs = max(1, min(4, os.cpu_count() or 1))
    try:
        if args.self_test:
            return self_test(jobs)
        bench = load_json(ROOT / "BENCHMARK.json")
        check_benchmark_file(bench)
        manifest = load_json(HERE / "manifest.json")
        names = [w["name"] for w in bench["workloads"]]
        if args.workload == "all":
            chosen = names
        elif args.workload in names:
            chosen = [args.workload]
        else:
            parser.error(f"--workload must be one of {names} or all")
        build(jobs)
        for name in chosen:
            human, result = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), manifest, bench)
            print("\n".join(human + [result]), flush=True)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
