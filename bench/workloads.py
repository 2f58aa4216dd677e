"""The four workloads: the CLI calls each one makes and the check on each
call's output.

A workload is a closed loop in one thread: each `innerlab.cli.main` call
is issued after the previous one returns.  Every call writes a CSV; its
check reads that CSV and compares it with an oracle that the benchmark
computes itself (closed forms, or the trapezoid rule of `inputs`), never
with a value the program printed, and with the acceptance suite's bands.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ATOM_WEIGHT, Inputs, chi_oracle, log_boundary_derivative

WORKLOADS = ("trees", "loops", "quad", "mass")

DEG2_ZEROS = (0j, 0.5 + 0j)
SQUARE_ZEROS = (0j, 0j)
# The deg-2 count at z = 0.3, R = 13 retains exactly this many nodes.
DEG2_R13_COUNT = 427_153
ZMINUS_CHI = 2.0 * math.pi          # chi_ell of z - 1/z
XI_BOX = (0.5, 0.7, 0.0, 1.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE the self-test."""

    deg2_R: float = 13.0
    count_target: int = 40_000
    strip_R: float = 11.0
    birkhoff_n: int = 50_000
    shadow_T: float = 10_000.0
    truncation_K: tuple = (6, 12)
    seeded_r_max: float = 1.0 - 1e-6
    mass_samples: int = 10 ** 7
    xi_depth: int = 8
    xi_grid: int = 24


FULL = Sizes()
SMOKE = Sizes(deg2_R=7.0, count_target=300, strip_R=6.0, birkhoff_n=3000,
              shadow_T=2000.0, truncation_K=(3, 5), seeded_r_max=1.0 - 1e-3,
              mass_samples=10 ** 5, xi_depth=2, xi_grid=8)


@dataclass
class Experiment:
    """One CLI call; argv[0] is the subcommand."""

    name: str
    argv: list
    check: object            # callable(Path) -> (ok, detail)
    out: Path


@dataclass
class Workload:
    experiments: list = field(default_factory=list)
    warmups: list = field(default_factory=list)


# -- CSV reading -------------------------------------------------------------

def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _band(name, value, lo, hi):
    ok = lo <= value <= hi
    return ok, f"{name} {value:.6g} in [{lo}, {hi}]"


# -- checks -------------------------------------------------------------------

def check_count(z: complex, zeros, R: float, exact=None):
    """Pointwise ratio N(z,R) e^-R / ((1/2) log(1/|z|) / chi) in [0.8, 1.25]
    (criterion 4); with `exact`, the count within 0.1 % of it."""
    def check(path):
        row = read_rows(path)[-1]
        n = int(row["count"])
        if abs(float(row["R"]) - R) > 1e-12:
            return False, f"last row at R = {row['R']}, expected {R}"
        target = 0.5 * math.log(1.0 / abs(z)) / chi_oracle(zeros)
        ok, detail = _band("ratio", n * math.exp(-R) / target, 0.8, 1.25)
        if exact is not None:
            ok &= abs(n - exact) <= 1e-3 * exact
            detail += f", count {n} vs {exact}"
        return ok, detail
    return check


def check_strip(z: complex, interval, R: float):
    """Pointwise ratio N_I e^-R / (Im z |I| / chi_ell) in [0.75, 1.3]
    (criterion 11), with chi_ell = 2 pi for z - 1/z."""
    def check(path):
        row = read_rows(path)[-1]
        target = z.imag * (interval[1] - interval[0]) / ZMINUS_CHI
        return _band("ratio", int(row["count"]) * math.exp(-R) / target, 0.75, 1.3)
    return check


def check_birkhoff(zeros):
    """Within 4 reported standard errors of chi (criterion 3)."""
    def check(path):
        row = read_rows(path)[-1]
        value, err = float(row["value"]), float(row["error"])
        sigmas = abs(value - chi_oracle(zeros)) / max(err, 1e-15)
        return sigmas <= 4.0, f"{sigmas:.2f} sigma"
    return check


def check_chi(zeros):
    """Within 1e-8 of chi (criterion 3's quadrature-Jensen band)."""
    def check(path):
        diff = abs(float(read_rows(path)[-1]["value"]) - chi_oracle(zeros))
        return diff < 1e-8, f"|chi - oracle| {diff:.2e}"
    return check


def check_atom_quadrature(weight: float):
    """A single atom of weight w has chi = log(2w); the reported error must
    cover the true error.  The requested tolerance is not checked: the
    shortfall is reported as chi_quadrature.achieved_over_requested."""
    def check(path):
        row = read_rows(path)[-1]
        true_err = abs(float(row["value"]) - math.log(2.0 * weight))
        return true_err <= float(row["error"]), \
            f"true error {true_err:.2e}, reported {float(row['error']):.2e}"
    return check


def check_shadow(below=None, above=None):
    """Final running average < 0.05 (density-zero bad times) or > 0.5
    (density-one horizontal adversary), criterion 12."""
    def check(path):
        final = float(read_rows(path)[-1]["avg_min_distance"])
        if below is not None:
            return final < below, f"final average {final:.4g} < {below}"
        return final > above, f"final average {final:.4g} > {above}"
    return check


def check_truncation_scan():
    """mu-integral gap between the two truncations > 1 (criterion 8).

    The eta bound is not applied here: the truncations' zeros lie on the
    scanned ray, where eta = 2 between the origin and a zero, so the
    eta-integral exceeds log |F'(zeta)| (criterion 7 samples random rays)."""
    def check(path):
        rows = read_rows(path)
        gap = float(rows[1]["integral_mu"]) - float(rows[0]["integral_mu"])
        return gap > 1.0, f"mu gap {gap:.4f} > 1"
    return check


def check_seeded_scan(models, zeta: float):
    """Every eta-integral <= log |F'(zeta)| + 1e-7 (criterion 7)."""
    zeros = {f"model{i}": m.zeros for i, m in enumerate(models)}

    def check(path):
        worst = max(float(row["integral_eta"])
                    - log_boundary_derivative(zeros[row["model_id"]], zeta)
                    for row in read_rows(path))
        return worst <= 1e-7, f"worst eta excess {worst:.2e}"
    return check


def check_total_mass(zeros):
    """Within 5 % of chi (criterion 9)."""
    def check(path):
        rel = abs(float(read_rows(path)[-1]["mass"]) - chi_oracle(zeros)) \
            / chi_oracle(zeros)
        return rel <= 0.05, f"relative error {rel:.4f} <= 0.05"
    return check


def xi_depth0_mass(box) -> float:
    """(1/2pi) int_box log(1/|z|) dA_hyp in closed form: with u = r^2 the
    radial integral is G(u) = -(u log u / (1-u) + log(1-u))."""
    r_lo, r_hi, t_lo, t_hi = box

    def G(u):
        return -(u * math.log(u) / (1.0 - u) + math.log1p(-u))
    return (t_hi - t_lo) / (2.0 * math.pi) * (G(r_hi ** 2) - G(r_lo ** 2))


def check_xi_mass(box):
    """Depth 0 equals the closed form to 1e-10 relative; masses do not
    decrease with depth by more than 10x the reported errors."""
    def check(path):
        rows = read_rows(path)
        mass = [float(r["mass"]) for r in rows]
        err = [float(r["error"]) for r in rows]
        exact = xi_depth0_mass(box)
        rel = abs(mass[0] - exact) / exact
        drops = [mass[k] - mass[k + 1] - 10.0 * max(err[k], err[k + 1])
                 for k in range(len(mass) - 1)]
        worst = max(drops, default=-math.inf)
        return rel <= 1e-10 and worst <= 0.0, \
            f"depth-0 rel err {rel:.1e}, worst drop beyond 10x error {worst:.1e}"
    return check


# -- workload definitions -------------------------------------------------------

def _z_arg(z: complex) -> str:
    return f"--z={z.real!r},{z.imag!r}"


def build(name: str, inputs: Inputs, work: Path, sizes: Sizes) -> Workload:
    """The experiments of workload `name`, reading model files in `work`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    model = {f: str(work / f) for f in inputs.files()}
    models = inputs.models

    def exp(label, argv, check):
        out = work / f"{label}.csv"
        return Experiment(label, argv + ["--out", str(out)], check, out)

    def warm(argv):
        return argv + ["--out", str(work / f"warmup_{argv[0]}.csv")]

    w = Workload()
    if name == "trees":
        cm = inputs.count_model
        w.experiments = [
            exp("count_deg2",
                ["count", "--model", model["deg2.inner"], "--z=0.3,0",
                 "--R", repr(sizes.deg2_R)],
                check_count(0.3, DEG2_ZEROS, sizes.deg2_R,
                            DEG2_R13_COUNT if sizes.deg2_R == 13.0 else None)),
            exp("count_seeded_d6",
                ["count", "--model", model[f"{cm.name}.inner"],
                 _z_arg(inputs.count_z), "--R", repr(inputs.count_R)],
                check_count(inputs.count_z, cm.zeros, inputs.count_R)),
            exp("parabolic_count_zminus",
                ["parabolic-count", "--model", model["zminus.hp"], "--z=0,0.5",
                 "--I=-1,1", "--R", repr(sizes.strip_R)],
                check_strip(0.5j, (-1.0, 1.0), sizes.strip_R)),
        ]
        w.warmups = [
            warm(["count", "--model", model["deg2.inner"], "--z=0.3,0", "--R", "2"]),
            warm(["parabolic-count", "--model", model["zminus.hp"], "--z=0,0.5",
                  "--I=-1,1", "--R", "1"]),
        ]
    elif name == "loops":
        for m in models:
            path = model[f"{m.name}.inner"]
            w.experiments += [
                exp(f"birkhoff_{m.name}",
                    ["lyapunov", "--model", path, "--method", "birkhoff",
                     "--n", str(sizes.birkhoff_n)],
                    check_birkhoff(m.zeros)),
                exp(f"jensen_{m.name}",
                    ["lyapunov", "--model", path, "--method", "jensen"],
                    check_chi(m.zeros)),
            ]
        T = repr(sizes.shadow_T)
        w.experiments += [
            exp("shadow_pow2", ["shadow-sim", "--T", T, "--bad-times", "pow2"],
                check_shadow(below=0.05)),
            exp("shadow_all_right",
                ["shadow-sim", "--T", T, "--bad-times", "all", "--adversary", "right"],
                check_shadow(above=0.5)),
        ]
        w.warmups = [
            warm(["lyapunov", "--model", model["deg2.inner"], "--method", "birkhoff",
                  "--n", "100"]),
            warm(["shadow-sim", "--T", "10"]),
        ]
    elif name == "quad":
        trunc = ["distortion-scan", "--zeta", "0"]
        for K in sizes.truncation_K:
            trunc += ["--truncation-K", str(K)]
        seeded = ["distortion-scan", "--zeta", "0", "--r-max", repr(sizes.seeded_r_max)]
        for m in models:
            seeded += ["--model", model[f"{m.name}.inner"]]
        w.experiments = [
            exp("scan_truncation", trunc, check_truncation_scan()),
            exp("scan_seeded", seeded, check_seeded_scan(models, 0.0)),
        ]
        w.experiments += [
            exp(f"quadrature_{m.name}",
                ["lyapunov", "--model", model[f"{m.name}.inner"], "--method", "quadrature"],
                check_chi(m.zeros))
            for m in models]
        w.experiments.append(exp(
            "quadrature_atom",
            ["lyapunov", "--model", model["atom.inner"], "--method", "quadrature"],
            check_atom_quadrature(ATOM_WEIGHT)))
        w.warmups = [
            warm(["distortion-scan", "--truncation-K", "2", "--r-max", "0.9"]),
            warm(["lyapunov", "--model", model["deg2.inner"], "--method", "quadrature"]),
        ]
    else:
        samples = str(sizes.mass_samples)
        w.experiments = [
            exp("total_mass_deg2",
                ["total-mass", "--model", model["deg2.inner"], "--r0", "0.99",
                 "--samples", samples],
                check_total_mass(DEG2_ZEROS)),
            exp("total_mass_square",
                ["total-mass", "--model", model["square.inner"], "--r0", "0.99",
                 "--samples", samples],
                check_total_mass(SQUARE_ZEROS)),
            exp("xi_mass_deg2",
                ["xi-mass", "--model", model["deg2.inner"],
                 "--box", ",".join(repr(v) for v in XI_BOX),
                 "--max-depth", str(sizes.xi_depth), "--grid", str(sizes.xi_grid)],
                check_xi_mass(XI_BOX)),
        ]
        w.warmups = [
            warm(["total-mass", "--model", model["deg2.inner"], "--samples", "4096"]),
            warm(["xi-mass", "--model", model["deg2.inner"], "--box", "0.5,0.7,0,1",
                  "--max-depth", "1", "--grid", "4"]),
        ]
    return w
