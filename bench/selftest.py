#!/usr/bin/env python3
"""Smoke self-test of the benchmark (about a minute):

    python3 bench/selftest.py

Runs every workload at tiny sizes with and without tracing, and checks that
the result line carries exactly the metrics of BENCHMARK.json with their
units and that every experiment's output check ran.  Also checks that the
seeded inputs are reproducible, that tracing survives a missing function,
and that the benchmark refuses to run without the innerlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def test_workloads(spec):
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            sizes = workloads.SMOKE
            experiments = workloads.build(name, inputs.make_inputs(7, sizes.count_target),
                                          Path(tmp), sizes).experiments
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(name, trace)
            expect(proc.returncode == 0, f"{name} trace={trace} exited "
                   f"{proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == RESULT_KEYS, f"{name}: result keys {set(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            expect(got == want, f"{name} trace={trace}: metrics differ from "
                   f"BENCHMARK.json: {set(got) ^ set(want)}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()), f"{name}: non-numeric value")
            ran = {ln.split(":", 1)[0][len("check "):] for ln in lines
                   if ln.startswith("check ")}
            expect(ran == {e.name for e in experiments},
                   f"{name}: checks ran for {sorted(ran)}")
            expect(result["attempted"] >= len(experiments),
                   f"{name}: attempted {result['attempted']}")
            print(f"ok {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed")


def test_inputs_reproducible():
    target = workloads.FULL.count_target
    a, b, c = (inputs.make_inputs(s, target).files() for s in (11, 11, 12))
    expect(a == b, "same seed gave different inputs")
    expect(a != c, "different seeds gave identical inputs")
    print("ok inputs: same seed identical, different seed different")


def test_tracing_survives_missing_function():
    import innerlab.cli  # noqa: F401  (the traced modules must be loaded)

    saved = spans.TRACED
    spans.TRACED = saved + (("innerfn", "innerlab.innerfn", "no_such_function",
                             None, ()),)
    try:
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        spans.TRACED = saved
    expect(tracer.absent == ["innerfn.no_such_function"],
           f"absent functions {tracer.absent}")
    expect(len(tracer.keys) == len(saved), "a present function was not traced")
    print("ok tracing: a missing function is reported absent")


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("trees", 0, cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
    expect(proc.returncode != 0, "ran without the innerlab sources")
    expect(not proc.stdout.strip(), f"printed a result: {proc.stdout[-200:]}")
    print("ok refuses to run without the innerlab sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_inputs_reproducible()
    test_tracing_survives_missing_function()
    test_refuses_without_sources()
    test_workloads(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
