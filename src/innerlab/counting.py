"""Counting functionals over preimage trees, in the disk and the strip.

The step-counting function N(z, S), its exact Cesaro average
(1/R) sum (e^{-d_w} - e^{-R}), the asymptotic target constant
(1/2) log(1/|z|) / chi, the empirical a-priori constant, and a
certified lower bound on the Schwarz gap.  Heights are hyperbolic radii
in the disk (`from_tree`) and -log Im w in the strip (`from_strip`).
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .hypgeo import origin_distance
from .innerfn import InnerModel
from .parabolic import StripProfile
from .preimage import PreimageTree, _schwarz_pick_gap

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
    if not 0 < abs(z) < 1:
        raise DomainError("base point must lie in 0 < |z| < 1")
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


def estimate_schwarz_gap(F: InnerModel) -> float:
    """A certified lower bound on gamma of the minimal-translation lemma:
    one quarter of the smallest drop d(0,z) - d(0,F(z)) over d(0,z) >= 1.

    Schwarz-Pick on each factor gives |F(z)| <= phi(|z|) (the bound of
    `preimage._schwarz_pick_gap`), so the drop at d(0,z) = D is at least
    D - d(0, phi(tanh(D/2))), with equality on z^n and on z b_a along the
    ray through -a.  phi is itself a Blaschke product (zeros -|a|), so by
    Schwarz-Pick d(0, phi(tanh(D/2))) grows no faster than D: the bound is
    nondecreasing in D and its minimum is at D = 1, in closed form.

    Rotations are degenerate (gap 0) and flagged with a log warning.
    """
    if not F.centered:
        raise PreconditionError("Schwarz gap needs a centered model")
    if F.is_rotation:
        log.warning("Schwarz gap of a rotation is degenerate (0)")
        return 0.0
    g = float(_schwarz_pick_gap(F, 1.0))
    return max(1.0 - math.log((2.0 - g) / g), 0.0) / 4.0


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
