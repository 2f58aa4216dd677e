"""Span tracing of innerlab's public functions, from outside the package.

`Tracer.install()` replaces each traced function by a wrapper that records
a span (function, start, end, parent span, experiment) and a few work
counters read from its arguments and result.  Modules import by name, so
every module attribute bound to a traced function is replaced, not only
the defining one (`aberth_batch` in `preimage` and `parabolic`,
`origin_distance` in `preimage`, `counting` and `lamination`, ...); class
methods are replaced on the class.  Spans stay in memory until `summary()`
turns them into calls, self time and counter totals per function.

A traced name that no longer exists is recorded as absent and skipped, so
renaming or deleting a helper never stops the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import warnings
from array import array
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _points(args, kwargs, result):
    z = _arg(args, kwargs, 1, "z")
    return {"points": int(np.size(getattr(z, "value", z)))}


def _aberth(args, kwargs, result):
    rows, degree = np.shape(result)
    return {"rows": rows, "degree": degree}


def _quadrature(args, kwargs, result):
    tol = _arg(args, kwargs, 1, "tol") or 1e-10
    return {"achieved_over_requested": result.error / tol}


def _csv_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"csv_bytes": os.path.getsize(path)}
    return None


# (layer, module, attribute path, counter function, counters it returns).
# Layers are innerlab's modules; `roots` is `_roots`.
TRACED = (
    ("roots", "innerlab._roots", "aberth_batch", _aberth, ("rows",)),
    ("preimage", "innerlab.preimage", "enumerate_ball",
     lambda a, k, r: {"explored": r.explored, "retained": r.size()},
     ("explored", "retained")),
    ("preimage", "innerlab.preimage", "preimages_of_batch",
     lambda a, k, r: {"points": len(r)}, ("points",)),
    ("parabolic", "innerlab.parabolic", "enumerate_strip",
     lambda a, k, r: {"explored": r.explored, "counted": len(r.counted_points),
                      "farfield_pruned": r.farfield_pruned},
     ("explored", "counted", "farfield_pruned")),
    ("parabolic", "innerlab.parabolic", "hp_preimages_batch", None, ()),
    ("parabolic", "innerlab.parabolic", "chi_ell", None, ()),
    ("parabolic", "innerlab.parabolic", "height_classify", None, ()),
    ("innerfn", "innerlab.innerfn", "InnerModel.eval", _points, ("points",)),
    ("innerfn", "innerlab.innerfn", "InnerModel.deriv", _points, ("points",)),
    ("innerfn", "innerlab.innerfn", "InnerModel.gap_ratio", _points, ("points",)),
    ("innerfn", "innerlab.innerfn", "InnerModel.boundary_deriv_modulus",
     lambda a, k, r: {"points": 1}, ("points",)),
    ("counting", "innerlab.counting", "CountingProfile.from_tree", None, ()),
    ("counting", "innerlab.counting", "counting_report", None, ()),
    ("lyapunov", "innerlab.lyapunov", "chi_birkhoff",
     lambda a, k, r: {"steps": int(_arg(a, k, 2, "n"))}, ("steps",)),
    ("lyapunov", "innerlab.lyapunov", "chi_quadrature", _quadrature,
     ("achieved_over_requested", "integration_warnings")),
    ("lyapunov", "innerlab.lyapunov", "chi_jensen_oracle", None, ()),
    ("distortion", "innerlab.distortion", "radial_distortion_integral", None, ()),
    ("distortion", "innerlab.distortion", "distortion_at_disk", None, ()),
    ("lamination", "innerlab.lamination", "shadowing_simulation",
     lambda a, k, r: {"steps": len(r.times) - 1}, ("steps",)),
    ("lamination", "innerlab.lamination", "total_mass_check",
     lambda a, k, r: {"samples": r.samples}, ("samples",)),
    ("lamination", "innerlab.lamination", "xi_box_mass", None, ()),
    ("hypgeo", "innerlab.hypgeo", "origin_distance", None, ()),
    ("cli", "innerlab.cli", "main", _csv_bytes, ("csv_bytes",)),
)

# Counters combined by max instead of sum.
MAX_COUNTERS = {"achieved_over_requested"}
# Metrics named after their layer rather than the function they come from.
METRIC_SOURCES = {"lyapunov.integration_warnings": "lyapunov.chi_quadrature",
                  "cli.csv_bytes": "cli.main"}


def source_key(metric: str) -> str | None:
    """The traced function a per-layer metric is computed from, if any."""
    if metric in METRIC_SOURCES:
        return METRIC_SOURCES[metric]
    keys = [f"{layer}.{path}" for layer, _, path, _, _ in TRACED]
    return max((k for k in keys if metric.startswith(k + ".")), key=len, default=None)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.keys = []            # function id -> "layer.attribute.path"
        self.counters = {}        # key -> counter names
        self.absent = []
        self._restore = []        # (owner, attribute, original)
        self.experiments = []     # experiment id -> label
        self._experiment = -1
        self.name_ids = array("i")
        self.parents = array("i")
        self.exp_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = []          # (span index, {counter: value})
        self._stack = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function that exists; record the rest absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "innerlab" or n.startswith("innerlab.")]
        for layer, module_name, path, counter_fn, counters in TRACED:
            key = f"{layer}.{path}"
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(key)
                continue
            self.keys.append(key)
            self.counters[key] = counters
            wrapper = self._wrap(len(self.keys) - 1, raw, counter_fn,
                                 "integration_warnings" in counters)
            if owner_path:
                self._replace(owner, attr, raw, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._replace(mod, name, raw, wrapper)

    def _replace(self, owner, attr, raw, wrapper):
        self._restore.append((owner, attr, raw))
        setattr(owner, attr,
                staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def _wrap(self, name_id, raw, counter_fn, count_warnings):
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            stack = tracer._stack
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.exp_ids.append(tracer._experiment)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            caught = None
            t0 = perf_counter()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.starts[idx] = t0
                stack.pop()
            found = counter_fn(args, kwargs, result) if counter_fn else None
            if caught is not None:
                found = dict(found or {})
                found["integration_warnings"] = sum(
                    w.category.__name__ == "IntegrationWarning" for w in caught)
            if found:
                tracer.counts.append((idx, found))
            return result
        return traced

    def begin_experiment(self, label: str):
        self.experiments.append(label)
        self._experiment = len(self.experiments) - 1

    # -- summary ------------------------------------------------------------

    def summary(self, experiment: str | None = None) -> dict:
        """key -> {"calls", "self_s", "total_s", counters, "by_degree"} over
        all spans, or over the spans of the experiments with one label.

        self_s is a span's duration minus that of its child spans; total_s
        sums the durations of spans not nested in a span of the same key.
        """
        n = len(self.starts)
        dur = np.frombuffer(self.ends, dtype=float)[:n] \
            - np.frombuffer(self.starts, dtype=float)[:n]
        parents = np.frombuffer(self.parents, dtype=np.int32)[:n]
        names = np.frombuffer(self.name_ids, dtype=np.int32)[:n]
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        outer = np.ones(n, dtype=bool)
        outer[nested] = names[parents[nested]] != names[nested]
        select = np.ones(n, dtype=bool)
        if experiment is not None:
            ids = [i for i, e in enumerate(self.experiments) if e == experiment]
            select = np.isin(np.frombuffer(self.exp_ids, dtype=np.int32)[:n], ids)
        out = {}
        for name_id, key in enumerate(self.keys):
            mask = select & (names == name_id)
            entry = {"calls": int(np.sum(mask)),
                     "self_s": float(np.sum(self_time[mask])),
                     "total_s": float(np.sum(dur[mask & outer])),
                     "by_degree": {}}
            entry.update((c, 0) for c in self.counters[key])
            out[key] = entry
        for idx, found in self.counts:
            if not select[idx]:
                continue
            entry = out[self.keys[names[idx]]]
            for counter, value in found.items():
                if counter == "degree":
                    roots, secs = entry["by_degree"].get(value, (0, 0.0))
                    entry["by_degree"][value] = (roots + found["rows"] * value,
                                                 secs + float(self_time[idx]))
                elif counter in MAX_COUNTERS:
                    entry[counter] = max(entry[counter], value)
                else:
                    entry[counter] += value
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """Flat per-layer metrics from a `Tracer.summary()`: for each function
    its calls, self_s and counters, plus the derived rates and ratios.
    Rates divide by total_s, the function's own span time."""
    m = {}
    for key, s in summary.items():
        for stat, value in s.items():
            if stat not in ("total_s", "by_degree"):
                m[f"{key}.{stat}"] = value
        for degree, (roots, secs) in s["by_degree"].items():
            m[f"{key}.roots_per_s.d{degree}"] = _ratio(roots, secs)
    if (s := summary.get("roots.aberth_batch")) is not None:
        m["roots.aberth_batch.rows_per_call"] = _ratio(s["rows"], s["calls"])
    if (s := summary.get("preimage.enumerate_ball")) is not None:
        m["preimage.enumerate_ball.kept_frac"] = _ratio(s["retained"], s["explored"])
        m["preimage.enumerate_ball.retained_per_s"] = _ratio(s["retained"], s["total_s"])
    if (s := summary.get("parabolic.enumerate_strip")) is not None:
        m["parabolic.enumerate_strip.counted_frac"] = _ratio(s["counted"], s["explored"])
    inner = [s for k, s in summary.items() if k.startswith("innerfn.")]
    if inner:
        m["innerfn.points_per_call"] = _ratio(sum(s["points"] for s in inner),
                                              sum(s["calls"] for s in inner))
    for key, work, rate in (("lyapunov.chi_birkhoff", "steps", "steps_per_s"),
                            ("lamination.shadowing_simulation", "steps", "steps_per_s"),
                            ("lamination.total_mass_check", "samples", "samples_per_s")):
        if (s := summary.get(key)) is not None:
            m[f"{key}.{rate}"] = _ratio(s[work], s["total_s"])
    if (s := summary.get("lyapunov.chi_quadrature")) is not None:
        m["lyapunov.integration_warnings"] = s["integration_warnings"]
    if (s := summary.get("cli.main")) is not None:
        m["cli.csv_bytes"] = s["csv_bytes"]
    return m
