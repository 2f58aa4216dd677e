#!/usr/bin/env python3
"""innerlab benchmark: drive `innerlab.cli.main` in-process on seeded inputs.

    python3 bench/run.py --workload {trees,loops,quad,mass} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; innerlab is imported from `src/`.
One run sets up (imports, seeded model files, one tiny warm-up call per
subcommand), then repeats the workload's list of CLI calls ("a pass") until
`--seconds` have elapsed, at least twice, and checks every call's output
against an oracle after each pass.  The last line of standard output is
one JSON object: `correct`, `attempted` and `failed` count output checks,
and `metrics` holds, with `--trace 0`, every end-to-end metric named in
BENCHMARK.json or, with `--trace 1`, every per-layer metric, from one more
pass run with spans recorded around innerlab's public functions.  Lines
before it give the machine facts and the figures behind the metrics.

End-to-end metrics: wall_s is the wall time of a pass (median over
passes); setup_s is the median wall time of three fresh processes that
each set up and exit (`--setup-only`); pass_frac is the share of output
checks passed and peak_rss_mb the peak resident memory of this process.
The wall time of each subcommand's calls is printed on the `times` line
and reported as a per-layer metric `cli.<subcommand>.wall_s`.  The BLAS and OpenMP
thread counts are pinned to 1 before numpy is imported, here and in the
set-up processes.

The two times are host-normalized: each is multiplied by CALIBRATION_S
over the median time of `calibrate()`, a fixed kernel timed right before
every CLI call and after every set-up process of the run.  On a shared
host the speed of the same code drifts by tens of percent from one
minute to the next; the kernel slows with it, so the ratio stays put while
a change to innerlab still moves it in full.  The raw times are printed on
the `times` line.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
MIN_PASSES = 2
# calibrate() samples taken before each CLI call, and its median time on
# the host the bounds were set on (a 2-vCPU Intel Xeon VM).
CALIBRATION_SAMPLES = 3
CALIBRATION_S = 0.002


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, then exit (times setup_s)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes (self-test only)")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def calibrate(samples: int = CALIBRATION_SAMPLES) -> list:
    """Times of a fixed interpreter-bound loop of complex arithmetic.

    Pure-Python work tracked the host's slowdowns of every workload more
    closely than numpy-bound work did, numpy-heavy workloads included."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        z, acc = 0.3 + 0.4j, 0.0
        for _ in range(10_000):
            z = z * (0.999 + 0.001j) + 0.001
            acc += abs(z)
        out.append(time.perf_counter() - t0)
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """A set-up workload: inputs written to `work`, warm-ups done."""

    def __init__(self, name, seed, work: Path, smoke: bool):
        from inputs import make_inputs
        import workloads
        from innerlab import cli

        self.cli = cli
        self.calibration = []
        sizes = workloads.SMOKE if smoke else workloads.FULL
        inputs = make_inputs(seed, sizes.count_target)
        inputs.write(work)
        self.workload = workloads.build(name, inputs, work, sizes)
        for argv in self.workload.warmups:
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up call failed: {argv}")

    def run_pass(self, tracer=None) -> dict:
        """One pass over the experiments: per-experiment times, exit codes,
        and the checks, run after the timing.  A traced pass does not
        calibrate."""
        times, codes = {}, {}
        for e in self.workload.experiments:
            if tracer is None:
                self.calibration += calibrate()
            else:
                tracer.begin_experiment(e.name)
            t0 = time.perf_counter()
            codes[e.name] = self.cli.main(e.argv)
            times[e.name] = time.perf_counter() - t0
        checks = {}
        for e in self.workload.experiments:
            if codes[e.name] != 0:
                checks[e.name] = (False, f"exit code {codes[e.name]}")
                continue
            try:
                checks[e.name] = e.check(e.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checks[e.name] = (False, f"unreadable output: {exc!r}")
        return {"times": times, "checks": checks}

    def command_times(self, result) -> dict:
        """Seconds per subcommand in one pass."""
        out = {}
        for e in self.workload.experiments:
            out[e.argv[0]] = out.get(e.argv[0], 0.0) + result["times"][e.name]
        return out


def measure_setup(args) -> tuple:
    """Wall times of SETUP_SAMPLES set-up processes, and calibration
    samples taken after each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples, calibration = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: "
                               + proc.stderr.decode(errors="replace")[-2000:])
        calibration += calibrate()
    return samples, calibration


def run_passes(bench: Bench, seconds: float) -> list:
    """Passes until `seconds` have elapsed, and at least MIN_PASSES."""
    results = []
    t0 = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        results.append(bench.run_pass())
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "innerlab" / "__init__.py").is_file():
        return fail(f"no innerlab sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Turn a termination request into SystemExit so the work directory is
    # removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        if args.setup_only:
            Bench(args.workload, args.seed, work, args.smoke)
            return 0
        setup, calibration = ([], []) if args.trace else measure_setup(args)
        bench = Bench(args.workload, args.seed, work, args.smoke)
        bench.calibration += calibration
        return report(args, spec, bench, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, spec, bench: Bench, setup: list) -> int:
    w = bench.workload
    print("env " + json.dumps(environment()), flush=True)
    passes = run_passes(bench, args.seconds)
    traced = None
    if args.trace:
        from spans import Tracer, layer_metrics, source_key

        tracer = Tracer()
        tracer.install()
        try:
            traced = bench.run_pass(tracer)
        finally:
            tracer.uninstall()

    runs = passes + ([traced] if traced else [])
    checks = [c for r in runs for c in r["checks"].values()]
    failed = sum(not ok for ok, _ in checks)
    for e in w.experiments:
        # The first failure of this check, else its first result.
        ok, detail = min((r["checks"][e.name] for r in runs), key=lambda c: c[0])
        print(f"check {e.name}: {'ok' if ok else 'FAILED'}: {detail}")
    per_exp = {e.name: statistics.median(r["times"][e.name] for r in passes)
               for e in w.experiments}
    per_cmd = {cmd: statistics.median(bench.command_times(r)[cmd] for r in passes)
               for cmd in bench.command_times(passes[0])}
    times = {"wall_s": statistics.median(sum(r["times"].values()) for r in passes)}
    if setup:
        times["setup_s"] = statistics.median(setup)
    calibration = statistics.median(bench.calibration)
    print("times " + json.dumps({
        "passes": len(passes), **times, "setup_samples_s": setup,
        "calibration_s": calibration, "calibration_samples": len(bench.calibration),
        "median_by_command_s": per_cmd, "median_by_experiment_s": per_exp}))

    if args.trace:
        values = layer_metrics(tracer.summary())
        values.update((f"cli.{cmd}.wall_s", t) for cmd, t in per_cmd.items())
        values["trace.overhead_s"] = sum(traced["times"].values()) - times["wall_s"]
        for e in w.experiments:
            s = tracer.summary(e.name).get("roots.aberth_batch")
            if s and s["calls"]:
                print(f"trace {e.name}: roots.aberth_batch calls={s['calls']} "
                      f"rows={s['rows']} self_s={s['self_s']:.4f}")
        print(f"trace overhead_s {values['trace.overhead_s']:.4f} on "
              f"{times['wall_s']:.4f} s untraced")
        if tracer.absent:
            print("absent " + json.dumps(tracer.absent))
        # A metric of a function that no longer exists is left out; one of a
        # function this workload never calls reads 0.
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]
                   if source_key(m["name"]) not in tracer.absent}
    else:
        values = {k: v * CALIBRATION_S / calibration for k, v in times.items()}
        values["pass_frac"] = (len(checks) - failed) / len(checks)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
