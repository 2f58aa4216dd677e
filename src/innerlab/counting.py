"""Counting functionals over preimage trees, in the disk and the strip.

The step-counting function N(z, S), its exact Cesaro average
(1/R) sum (e^{-d_w} - e^{-R}), the asymptotic target constant
(1/2) log(1/|z|) / chi, the empirical a-priori constant, and the
empirical Schwarz gap.  Heights are hyperbolic radii in the disk
(`from_tree`) and -log Im w in the strip (`from_strip`).
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .hypgeo import origin_distance
from .innerfn import InnerModel
from .parabolic import StripProfile
from .preimage import PreimageTree

log = logging.getLogger("innerlab.counting")


@dataclass(frozen=True)
class CountingProfile:
    """Sorted retained radii of the repeated preimages of `base`, up to the
    enumeration cutoff; the counting step function is right-continuous."""

    base: complex
    radii: np.ndarray
    cutoff: float

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        r = r if (r[:-1] <= r[1:]).all() else np.sort(r)  # from_tree: sorted
        if len(r) and r[-1] > self.cutoff + 1e-12:
            raise PreconditionError("profile contains radii beyond the cutoff")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "base", complex(self.base))

    @staticmethod
    def from_tree(tree: PreimageTree) -> "CountingProfile":
        return CountingProfile(tree.base, tree.radii(), tree.cutoff)

    @staticmethod
    def from_strip(profile: StripProfile) -> "CountingProfile":
        """Heights -log Im w of the points counted in I x [e^{-R}, 1], up to
        the strip's cutoff R."""
        return CountingProfile(profile.base, -np.log(profile.counted_points.imag),
                               profile.cutoff)


def count(profile: CountingProfile, S: float) -> int:
    """N(z, S) = #{retained radii <= S}; S beyond the cutoff is an error
    because that data was pruned away."""
    if S < 0:
        raise PreconditionError("negative radius")
    if S > profile.cutoff + 1e-12:
        raise PreconditionError(
            f"S = {S} exceeds the enumeration cutoff {profile.cutoff}")
    return int(np.searchsorted(profile.radii, S, side="right"))


def cesaro(profile: CountingProfile, R: float) -> float:
    """(1/R) integral_0^R N(z, S) e^-S dS, evaluated exactly as
    (1/R) sum_{d_w <= R} (e^{-d_w} - e^{-R})."""
    if not 0 < R <= profile.cutoff + 1e-12:
        raise PreconditionError(f"need 0 < R <= cutoff, got R = {R}")
    r = profile.radii[:np.searchsorted(profile.radii, R, side="right")]
    if len(r) == 0:
        return 0.0
    return float(np.sum(np.exp(-r) - np.exp(-R))) / R


def target_constant(z, chi: float) -> float:
    """The limit constant (1/2) log(1/|z|) / chi of the counting theorems."""
    if not chi > 0:
        raise DomainError("Lyapunov exponent must be positive")
    if z == 0:
        raise DomainError("base point must be nonzero")
    return 0.5 * float(np.log(1.0 / abs(z))) / chi


def apriori_constant(profile: CountingProfile) -> float:
    """Empirical constant C for N(z, R') <= C e^{R' - d(0,z)}: the max of
    N(z, R') e^{-(R' - d(0,z))} over the grid of R' in (0, R] of step 0.25
    (and R itself)."""
    if len(profile.radii) == 0:
        return 0.0
    d0 = origin_distance(abs(profile.base))
    grid = np.arange(0.25, profile.cutoff + 1e-9, 0.25)
    if len(grid) == 0 or grid[-1] < profile.cutoff - 1e-9:
        grid = np.append(grid, profile.cutoff)
    counts = np.searchsorted(profile.radii, grid, side="right")
    return float(np.max(counts * np.exp(-(grid - d0))))


def estimate_schwarz_gap(F: InnerModel, samples: int = 20000,
                         seed: int = 0) -> float:
    """Empirical gamma of the minimal-translation lemma: one quarter of the
    smallest observed drop d(0,z) - d(0,F(z)) over a quasi-uniform
    hyperbolic grid on 1 <= d(0,z) <= 12, refined near the minimizer.

    Rotations are degenerate (gap 0) and flagged with a log warning.
    """
    if not F.centered:
        raise PreconditionError("Schwarz gap needs a centered model")
    if F.is_rotation:
        log.warning("Schwarz gap of a rotation is degenerate (0)")
        return 0.0
    rng = np.random.default_rng(seed)

    def min_drop(dvals, thetas):
        r = np.tanh(dvals / 2.0)
        z = r * np.exp(1j * thetas)
        drop = dvals - origin_distance(np.abs(F.eval(z)))
        k = int(np.argmin(drop))
        return float(drop[k]), complex(z[k])

    n_rings = max(24, int(np.sqrt(samples)))
    per_ring = max(16, samples // n_rings)
    dvals = np.repeat(np.linspace(1.0, 12.0, n_rings), per_ring)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=len(dvals))
    best, z_best = min_drop(dvals, thetas)
    # Local refinement around the minimizer.
    d0 = origin_distance(abs(z_best))
    th0 = float(np.angle(z_best))
    for width in (0.3, 0.05, 0.01):
        dloc = np.clip(d0 + rng.uniform(-width, width, size=2000), 1.0, 12.0)
        thloc = th0 + rng.uniform(-width, width, size=2000)
        cand, z_cand = min_drop(dloc, thloc)
        if cand < best:
            best, z_best = cand, z_cand
            d0, th0 = origin_distance(abs(z_best)), float(np.angle(z_best))
    return max(best, 0.0) / 4.0


CountingRow = namedtuple("CountingRow", "R count count_over_eR cesaro target")


def counting_report(profile: CountingProfile, R_values, target: float) -> list:
    """Rows (R, count, count/e^R, cesaro, target) per requested R; each
    caller forms its ratio column from them (pointwise count_over_eR/target
    in the disk, cesaro/target in the strip)."""
    rows = []
    for R in R_values:
        n = count(profile, R)
        rows.append(CountingRow(float(R), n, n * float(np.exp(-R)),
                                cesaro(profile, R), target))
    return rows
