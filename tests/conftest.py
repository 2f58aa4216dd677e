import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from innerlab import _roots
from innerlab.innerfn import InnerModel
from innerlab.preimage import preimages_of_batch

# Tier-1 draws the same hypothesis examples on every run.
# INNERLAB_HYPOTHESIS=search selects a profile that draws fresh examples on
# each run, for a longer search over repeated runs.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search", derandomize=False)
settings.load_profile(os.environ.get("INNERLAB_HYPOTHESIS", "tier1"))


def random_centered_blaschke(rng, dmax=6, rmax=0.9, rotate=True):
    """A random centered Blaschke product of degree 2..dmax."""
    d = int(rng.integers(2, dmax + 1))
    zeros = [0j]
    while len(zeros) < d:
        w = rng.uniform(-rmax, rmax) + 1j * rng.uniform(-rmax, rmax)
        if abs(w) < rmax:
            zeros.append(w)
    rot = np.exp(2j * np.pi * rng.uniform()) if rotate else 1.0
    return InnerModel(rotation=rot, zeros=tuple(zeros))


def random_disk_point(rng, rmin=0.05, rmax=0.9):
    r = rng.uniform(rmin, rmax)
    return r * np.exp(2j * np.pi * rng.uniform())


def polar(r, turn):
    return r * np.exp(2j * np.pi * turn)


unit = st.floats(0.0, 1.0)


def radius(r_max):
    return st.floats(0.0, r_max)


@st.composite
def near_degenerate(draw, kind):
    """A centered model of degree <= 17 with near-degenerate zeros of the
    given kind, and a point z with 0.05 <= |z| <= 0.95."""
    k = draw(st.integers(1, 16))
    if kind == "clustered":
        c = polar(draw(radius(0.9)), draw(unit))
        spread = 10.0 ** draw(st.floats(-9.0, -2.0))
        zeros = [c + polar(spread * draw(st.floats(0.1, 1.0)), draw(unit))
                 for _ in range(k)]
    elif kind == "repeated":
        zeros = [polar(draw(radius(0.95)), draw(unit))] * k
    else:
        gap = {"near-circle": (-3.0, -0.5), "on-circle": (-9.0, -5.0)}[kind]
        zeros = [polar(1.0 - 10.0 ** draw(st.floats(*gap)), draw(unit))
                 for _ in range(k)]
    F = InnerModel(rotation=polar(1.0, draw(unit)), zeros=(0j, *zeros))
    return F, polar(draw(st.floats(0.05, 0.95)), draw(unit))


def critical_points(F):
    """The critical points of the Blaschke product F = N/D in the disk: the
    roots of N'D - ND' inside it, by numpy's companion matrix."""
    N, D = F.rational_coeffs
    P = np.polynomial.polynomial
    crit = P.polyroots(P.polysub(P.polymul(P.polyder(N), D),
                                 P.polymul(N, P.polyder(D))))
    return crit[np.abs(crit) < 1.0]


def cubic_critical_point():
    """The cubic model with zeros {0, 1/2, 2i/5} and its critical point
    near 0.2i, whose double pullback Aberth splits by about 1e-7."""
    F = InnerModel.from_zeros(0, 0.5, 0.4j)
    crit = critical_points(F)
    c = crit[np.argmin(np.abs(crit - 0.2j))]
    assert abs(F.deriv(c)) < 1e-14
    return F, c


def whole_generations(F, z, n):
    """Generations 0..n of the preimage tree of z, none pruned: generation
    g + 1 holds the preimages of generation g, parent-major, from one
    `preimages_of_batch` solve per generation."""
    gens = [np.array([z], dtype=complex)]
    for _ in range(n):
        gens.append(preimages_of_batch(F, gens[-1]).reshape(-1))
    return gens


def aberth_records(caplog):
    """The captured `aberth_batch` records, without the preimage solve's."""
    return [r for r in caplog.records if r.msg == _roots._RECORD]


@dataclass(frozen=True)
class Composed:
    """outer o inner with the chain-rule derivative and gap ratio: the
    composition oracle of the distortion composition law."""

    outer: object
    inner: object

    def eval(self, z):
        return self.outer.eval(self.inner.eval(z))

    def deriv(self, z):
        return self.outer.deriv(self.inner.eval(z)) * self.inner.deriv(z)

    def gap_ratio(self, z):
        return self.inner.gap_ratio(z) * self.outer.gap_ratio(self.inner.eval(z))


def geodesic_curvature(points, index, params=None):
    """Hyperbolic geodesic curvature of a sampled disk curve at one sample:
    half the Euclidean curvature at the origin after Moebius-normalizing
    the sample to 0, from the exact quartic through the 5-point window
    around it (`params` defaults to the sample index).  A test oracle,
    pinned to closed forms in test_hypgeo."""
    points = np.asarray(points, dtype=complex)
    if not 2 <= index <= len(points) - 3:
        raise ValueError("index needs two samples on each side")
    if params is None:
        params = np.arange(len(points), dtype=float)
    p = points[index]
    w = ((points - p) / (1.0 - np.conj(p) * points))[index - 2: index + 3]
    t = np.asarray(params[index - 2: index + 3], dtype=float) - params[index]
    coef = np.linalg.solve(np.vander(t, 5, increasing=True), w)
    d1, d2 = coef[1], 2.0 * coef[2]
    if abs(d1) < 1e-13:
        raise ValueError("degenerate stencil: vanishing tangent")
    return 0.5 * abs((np.conj(d1) * d2).imag) / abs(d1) ** 3


# Copies of the per-file CSV writers that `cli._write_csv` replaced, kept
# as the reference for its output: the CLI's data rows must equal theirs
# byte for byte on the same results.

def write_counting_csv(rows, path, header_lines=()):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("R,count,count_over_eR,cesaro,target,ratio\n")
        for row in rows:
            fh.write(f"{row.R:.17g},{row.count},{row.count_over_eR:.17g},"
                     f"{row.cesaro:.17g},{row.target:.17g},{row.ratio:.17g}\n")


# The strip report writer had the same body.
write_strip_csv = write_counting_csv


def write_scan_csv(rows, path, header_lines=()):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("model_id,r_max,integral_mu,integral_eta,integral_delta,"
                 "integral_alpha,log_angular_derivative\n")
        for r in rows:
            fh.write(f"{r.model_id},{r.r_max:.17g},{r.integral_mu:.17g},"
                     f"{r.integral_eta:.17g},{r.integral_delta:.17g},"
                     f"{r.integral_alpha:.17g},{r.log_angular_derivative:.17g}\n")


def write_strip_points_csv(profile, path):
    with open(path, "w", newline="") as fh:
        for line in profile.model.to_text().splitlines():
            fh.write(f"# {line}\n")
        fh.write(f"# z={profile.base.real:.17g},{profile.base.imag:.17g}\n")
        fh.write(f"# I=[{profile.interval[0]:.17g},{profile.interval[1]:.17g}]"
                 f" R={profile.cutoff:.17g}\n")
        fh.write("generation,re,im,Im_height\n")
        for g, p in zip(profile.counted_generations, profile.counted_points):
            fh.write(f"{g},{p.real:.17g},{p.imag:.17g},"
                     f"{-math.log(p.imag):.17g}\n")


def write_lyapunov_csv(estimates, path):
    with open(path, "w") as fh:
        fh.write("method,value,error\n")
        for est in estimates:
            fh.write(f"{est.method},{est.value:.17g},{est.error:.17g}\n")


def write_orbit_csv(pts, path):
    with open(path, "w") as fh:
        fh.write("n,re,im\n")
        for n, p in enumerate(pts):
            fh.write(f"{n},{p.real:.17g},{p.imag:.17g}\n")


def write_xi_mass_csv(estimates, path):
    with open(path, "w") as fh:
        fh.write("depth,mass,error\n")
        for est in estimates:
            fh.write(f"{est.depth},{est.value:.17g},{est.error:.17g}\n")


def write_total_mass_csv(res, path):
    with open(path, "w") as fh:
        fh.write("r0,mass,stderr,chi_ref,samples\n")
        fh.write(f"{res.r0:.17g},{res.mass:.17g},{res.stderr:.17g},"
                 f"{res.chi_ref:.17g},{res.samples}\n")


def write_shadow_csv(run, keep, path):
    with open(path, "w") as fh:
        fh.write("t,avg_min_distance\n")
        for t, v in zip(run.times[::keep], run.avg_curve[::keep]):
            fh.write(f"{t:.17g},{v:.17g}\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def deg2():
    return InnerModel.from_zeros(0, 0.5)


@pytest.fixture
def square():
    return InnerModel.power_map(2)
