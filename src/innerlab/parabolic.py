"""Half-plane dynamics of parabolic inner functions with finite atom
measures.

Models F(z) = z + beta + sum c_k (1 + z x_k)/(x_k - z) (alpha = 1, so the
fixed point at infinity is parabolic), their preimages (the disk's solve
on the cached rational form F = N/D), the strip enumeration behind
N_I(z, R) with Im-threshold pruning (counted by `counting` on heights
-log Im w), the boundary Lyapunov exponent chi_ell, and height
classification.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._quadrature import _integrate
from ._roots import _preimage_roots
from .errors import BudgetError, NumericalError, PreconditionError
from .innerfn import _model_lines
from .preimage import DEFAULT_NODE_BUDGET

log = logging.getLogger("innerlab.parabolic")

IM_SUM_TOL = 1e-9
FARFIELD_SAFETY = 4.0
_STRIP_RECORD = ("enumerate_strip: %d generations, %d explored, %d counted, "
                 "%d far-field pruned, frontier largest %d, median %g")


@dataclass(frozen=True)
class HalfPlaneInner:
    """Finite-atom Herglotz self-map of the upper half-plane with a
    parabolic fixed point at infinity."""

    beta: float = 0.0
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        ats = tuple((float(x), float(c)) for x, c in self.atoms)
        for _, c in ats:
            if c <= 0:
                raise PreconditionError("atom masses must be positive")
        xs = [x for x, _ in ats]
        if len(set(xs)) != len(xs):
            raise PreconditionError("atom base points must be distinct")
        object.__setattr__(self, "atoms", ats)

    @property
    def degree(self) -> int:
        return len(self.atoms) + 1

    @property
    def drift(self) -> float:
        """beta - sum c_k x_k: the quadratic Taylor coefficient at infinity
        (0 exactly for doubly-parabolic maps)."""
        return self.beta - sum(c * x for x, c in self.atoms)

    @property
    def jump_scale(self) -> float:
        """sum c_k (1 + x_k^2): the cubic coefficient at infinity; controls
        the size of non-drift preimage branches far out."""
        return sum(c * (1.0 + x * x) for x, c in self.atoms)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = z + self.beta
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, c in self.atoms:
                out = out + c * (1.0 + z * x) / (x - z)
        return complex(out) if out.ndim == 0 else out

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, c in self.atoms:
                out = out + c * (x * x + 1.0) / (x - z) ** 2
        return complex(out) if out.ndim == 0 else out

    def _eval_deriv(self, z):
        """F and F' at the array z in one pass over the atoms, by the
        expressions of `eval` and `deriv`, under the caller's errstate."""
        f, fprime = z + self.beta, np.ones_like(z)
        for x, c in self.atoms:
            d = x - z
            f += c * (1.0 + z * x) / d
            fprime += c * (x * x + 1.0) / d ** 2
        return f, fprime

    def _preimage_newton(self, w, z):
        """p/p' at w for p = D (F - z), D = prod (x_k - w) the denominator
        of the rational form: (F - z)/(F' + (F - z) sum 1/(w - x_k))."""
        r = self.eval(w) - z
        return r / (self.deriv(w) + r * sum(1.0 / (w - x) for x, _ in self.atoms))

    @cached_property
    def rational_coeffs(self):
        """(N, D) lowest-degree-first coefficients with F = N/D, built on
        first use and kept, read-only: D(w) = prod (x_k - w) and
        N(w) = (w + beta) D(w) + sum c_k (1 + w x_k) prod_{l != k} (x_l - w).
        """
        D = np.array([1.0 + 0j])
        for x, _ in self.atoms:
            D = np.convolve(D, [x, -1.0])
        corr = np.zeros(len(D) + 1, dtype=complex)
        for x, c in self.atoms:
            others = np.array([1.0 + 0j])
            for x2, _ in self.atoms:
                if x2 != x:
                    others = np.convolve(others, [x2, -1.0])
            term = c * np.convolve([1.0, x], others)
            corr[: len(term)] += term
        N = np.convolve([self.beta, 1.0], D) + corr
        N.flags.writeable = D.flags.writeable = False
        return N, D

    @cached_property
    def _atom_starts(self):
        """The starts x_k + 0.1 e^{0.5i} next to the poles, kept."""
        return np.array([x + 0.1 * np.exp(0.5j) for x, _ in self.atoms])

    def to_text(self) -> str:
        lines = [f"beta={format(self.beta, '.17g')}"]
        for x, c in self.atoms:
            lines.append(f"atom={format(x, '.17g')},{format(c, '.17g')}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "HalfPlaneInner":
        beta, atoms = 0.0, []
        for key, values in _model_lines(text, {"beta": 1, "atom": 2}):
            if key == "beta":
                (beta,) = values
            else:
                atoms.append(values)
        return HalfPlaneInner(beta=beta, atoms=tuple(atoms))


def hp_preimages_batch(F: HalfPlaneInner, zs) -> np.ndarray:
    """The degree-many preimages of each z in the open upper half-plane, as
    an (m, degree) array, each row in the order the solve produced it:
    fixed by F and that row's z alone, so deterministic but unsorted.

    A z outside H is a PreconditionError.  Residuals are kept below
    1e-12 * max(1, max |z|); all roots must lie in H and satisfy the height
    identity sum Im w = Im z to 1e-9, else a consistency error is raised.
    A one-atom model (degree 2) is solved in closed form.  From degree 3
    on, the root solve starts each row at z - beta (the drift root) and
    next to each atom base point (one root near each pole), nudged off
    the vertical through the pole so that no start is symmetric under a
    reflection of the model.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if (zs.imag <= 0).any():
        raise PreconditionError("points must lie in the upper half-plane")
    start = np.empty((len(zs), F.degree), dtype=complex)
    start[:, 0] = zs - F.beta
    start[:, 1:] = F._atom_starts
    roots = _preimage_roots(F, zs, start=start)
    im_sum = np.abs(roots.imag.sum(axis=1) - zs.imag)
    if (roots.imag <= 0).any() or (im_sum > IM_SUM_TOL).any():
        raise NumericalError(
            "preimage set inconsistent with the height identity",
            context={"model": F, "imbalance": float(np.max(im_sum))})
    return roots


@dataclass(frozen=True)
class HeightClass:
    kind: str            # "finite-height" | "infinite-height"
    confidence: str      # "analytic" | "heuristic"
    detail: str


def height_classify(F: HalfPlaneInner) -> HeightClass:
    """Classify F as finite or infinite height.

    For symmetric atom measures the Taylor expansion at infinity (via the
    w = -1/z conjugation) decides exactly: the quadratic coefficient is
    beta - sum c_k x_k, zero iff doubly parabolic iff infinite height.
    Otherwise the orbit of 0.7i is iterated 2000 times and the
    classification is the heuristic doubling test on its Im.
    """
    pairs = sorted((x, c) for x, c in F.atoms)
    mirrored = sorted((-x, c) for x, c in F.atoms)
    symmetric = len(pairs) == len(mirrored) and all(
        abs(a - b) < 1e-12 and abs(ca - cb) < 1e-12
        for (a, ca), (b, cb) in zip(pairs, mirrored))
    if symmetric:
        b = F.drift
        if abs(b) < 1e-12:
            return HeightClass("infinite-height", "analytic",
                               "doubly parabolic: quadratic coefficient 0 at infinity")
        return HeightClass("finite-height", "analytic",
                           f"singly parabolic: quadratic coefficient {b:g}")
    z = 0.7j
    for _ in range(2000):
        z = F.eval(z)
    if z.imag >= 2.0 * 0.7:
        return HeightClass("infinite-height", "heuristic",
                           f"Im grew {z.imag / 0.7:.2f}x over 2000 iterates")
    return HeightClass("finite-height", "heuristic",
                       f"Im grew only {z.imag / 0.7:.2f}x over 2000 iterates")


def chi_ell(F: HalfPlaneInner, tol: float = 1e-8) -> float:
    """int_R log |F'(x)| dx by adaptive quadrature under x = tan(phi).

    On the real line F' = 1 + sum c_k (x_k^2+1)/(x_k - x)^2 > 1, and the
    substitution makes the integrand bounded at the endpoints since
    log F' ~ jump_scale / x^2 in the tails.
    """
    if not F.atoms:
        return 0.0

    def integrand(phi):
        x = np.tan(phi)
        return np.log(F.deriv(x).real) * (1.0 + x * x)

    half = math.pi / 2.0
    breaks = [-half, *sorted(math.atan(x) for x, _ in F.atoms), half]
    return _integrate(integrand, list(zip(breaks, breaks[1:])), tol, 1e-12)[0]


# ---------------------------------------------------------------------------
# Strip enumeration


@dataclass
class StripProfile:
    """Counted preimages in I x [e^{-R}, 1] plus the pruning audit trail;
    `counting.CountingProfile.from_strip` counts them by height -log Im w."""

    model: HalfPlaneInner
    base: complex
    interval: tuple
    cutoff: float
    counted_points: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    counted_generations: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    farfield_pruned: int = 0
    explored: int = 0


def enumerate_strip(F: HalfPlaneInner, z, interval, R: float,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> StripProfile:
    """Backward tree of repeated preimages with Im >= e^{-R}; a point is
    counted iff additionally Re in `interval` and Im <= 1.

    Pruning by the Im threshold alone is sound (preimage heights only
    decrease).  The far-field prune also drops drift nodes far outside
    the interval/pole hull whose descendants provably stay below the
    threshold on any path re-entering bounded territory: a jump branch off
    a drift node at w has height about jump_scale * Im(w)/|w - poles|^2,
    and the outward drift only shrinks that bound.  Without it the drift
    chains cost order e^{2R} nodes.
    """
    z = complex(z)
    if z.imag <= 0:
        raise PreconditionError("base point must lie in the upper half-plane")
    if not F.atoms:
        raise PreconditionError("strip enumeration needs at least one atom")
    if not 0 <= R < math.inf:
        raise PreconditionError("cutoff must be nonnegative and finite")
    x_lo, x_hi = (float(interval[0]), float(interval[1]))
    if not x_lo < x_hi:
        raise PreconditionError(f"empty interval [{x_lo:g}, {x_hi:g}]; "
                                "need x_lo < x_hi")
    cls = height_classify(F)
    if cls.kind != "infinite-height":
        raise PreconditionError(f"model is not infinite height ({cls.detail})")

    eps = math.exp(-R)
    pole = max(abs(x) for x, _ in F.atoms)
    re_safe = max(abs(x_lo), abs(x_hi), pole) + 5.0
    jump, d = F.jump_scale, F.degree

    profile = StripProfile(F, z, (x_lo, x_hi), float(R))

    def counted(pts):
        return pts[(pts.real >= x_lo) & (pts.real <= x_hi)
                   & (pts.imag >= eps) & (pts.imag <= 1.0 + 1e-15)]

    current = np.array([z], dtype=complex)
    counted_pts, frontier = [counted(current)], []      # per generation
    profile.explored = 1
    while len(current) > 0:
        frontier.append(len(current))
        profile.explored += len(current) * d
        if profile.explored > node_budget:
            raise BudgetError(f"node budget {node_budget} exceeded at "
                              f"generation {len(frontier)}", partial=profile)
        roots = hp_preimages_batch(F, current).reshape(-1)
        re, im = roots.real, roots.imag
        dist = np.abs(re)
        reentry = FARFIELD_SAFETY * jump * im / np.maximum(dist - pole, 1.0) ** 2
        hopeless = (dist >= re_safe) & (reentry < eps) & ((re < x_lo) | (re > x_hi))
        keep = im >= eps
        profile.farfield_pruned += int((keep & hopeless).sum())
        keep &= ~hopeless
        current = roots[keep]
        counted_pts.append(counted(current))
    sizes = [len(p) for p in counted_pts]
    profile.counted_points = np.concatenate(counted_pts)
    profile.counted_generations = np.repeat(np.arange(len(sizes)), sizes)
    log.debug(_STRIP_RECORD, len(frontier), profile.explored, sum(sizes),
              profile.farfield_pruned, max(frontier), np.median(frontier))
    return profile
