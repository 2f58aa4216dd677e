"""Half-plane dynamics of parabolic inner functions with finite atom
measures.

Models F(z) = z + beta + sum c_k (1 + z x_k)/(x_k - z) (alpha = 1, so the
fixed point at infinity is parabolic), their preimages (the disk's solve
on the cached rational form F = N/D), the strip enumeration behind
N_I(z, R) with Im-threshold pruning and a proved far-field prune (counted
by `counting` on heights -log Im w), the boundary Lyapunov exponent
chi_ell, and height classification by the translation term at infinity.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._quadrature import _integrate, _require_tol
from ._roots import _preimage_roots
from .errors import BudgetError, NumericalError, PreconditionError
from .innerfn import _model_lines
from .preimage import DEFAULT_NODE_BUDGET

log = logging.getLogger("innerlab.parabolic")

IM_SUM_TOL = 1e-9
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
        if not math.isfinite(self.beta):
            raise PreconditionError(f"beta must be finite, got {self.beta!r}")
        for x, c in ats:
            if not (math.isfinite(x) and 0 < c < math.inf):
                raise PreconditionError("atom base points must be finite and "
                                        "atom masses positive and finite")
        xs = [x for x, _ in ats]
        if len(set(xs)) != len(xs):
            raise PreconditionError("atom base points must be distinct")
        object.__setattr__(self, "atoms", ats)

    @property
    def degree(self) -> int:
        return len(self.atoms) + 1

    @property
    def drift(self) -> float:
        """b = beta - sum c_k x_k, the translation term at infinity."""
        return self.beta - sum(c * x for x, c in self.atoms)

    @property
    def jump_scale(self) -> float:
        """J = sum c_k (1 + x_k^2) in F(z) = z + b - J/z + O(1/z^2): the
        constant of `enumerate_strip`'s far-field bound on Im of preimages."""
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
    detail: str


def height_classify(F: HalfPlaneInner) -> HeightClass:
    """Infinite height iff F(z) = z + b - J/z + O(1/z^2) at infinity has
    translation term b = `drift` = 0, the doubly parabolic case; b != 0 is
    finite height (Pommerenke 1979).

    b counts as 0 iff |b| <= (d + 2) eps S, with S = |beta| + sum c_k |x_k|
    and d = n + 1 for n atoms.  If the decimal inputs give b = 0 exactly,
    each input is within u = eps/2 relative of its decimal, each c_k x_k
    within 3u relative once its product rounds, and the n roundings of
    beta - sum c_k x_k add n u S: the float |b| <= (n + 3) u S to first
    order, and the factor 2 covers the rest.  A |b| under it reads as 0.
    """
    b, S = F.drift, abs(F.beta) + sum(c * abs(x) for x, c in F.atoms)
    bound = (F.degree + 2) * np.finfo(float).eps * S
    kind = "infinite-height" if abs(b) <= bound else "finite-height"
    return HeightClass(kind, f"b = {b:.3g}, rounding bound {bound:.3g}")


def chi_ell(F: HalfPlaneInner, tol: float = 1e-8) -> float:
    """int_R log |F'(x)| dx by adaptive quadrature under x = tan(phi).

    On the real line F' = 1 + sum c_k (x_k^2+1)/(x_k - x)^2 > 1, and the
    substitution makes the integrand bounded at the endpoints since
    log F' ~ jump_scale / x^2 in the tails.
    """
    _require_tol(tol)
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
    counted iff additionally Re in `interval` and Im <= 1.  F must be of
    infinite height, b = 0 by `height_classify`, else a PreconditionError
    names b.

    Pruning by the Im threshold alone is sound (preimage heights only
    decrease).  Without the far-field prune the drift chains, which move
    outward along the real axis at about constant height, cost order
    e^{2R} nodes.  With rho = |Re w|, X0 = max(|x_lo|, |x_hi|, max |x_k|)
    and J = `jump_scale`, a node w is pruned iff D = rho - X0 - J/rho > 0
    and J Im w / D^2 < e^{-R}, tested as q = rho (rho - X0) - J > 0 and
    J Im w rho^2 < e^{-R} q^2 so that rho = 0 divides by nothing.

    Proof that no descendant of a pruned w is counted.  Write b = beta -
    sum c_k x_k and J_k = c_k (1 + x_k^2), so F(v) = v + b + sum J_k /
    (x_k - v).  With b = 0, every preimage v of u satisfies
    (i) u - v = sum J_k/(x_k - v) and Im u = Im v (1 + sum J_k/|x_k - v|^2),
        so by Cauchy-Schwarz |u - v|^2 <= J (Im u/Im v - 1): Im v <= J Im
        u/|u - v|^2;
    (ii) if Re v > max x_k, every term of Re(u - v) is negative, so Re v >
        Re u; mirrored, Re v < min x_k gives Re v < Re u;
    (iii) if |Re u| >= rho and X = X0 + J/rho, no v lies beyond X on the
        other side of 0: that needs rho + X < |u - v| <= J/(|Re v| -
        max |x_k|) < rho.
    So w (with rho > X >= X0, outside the interval) and its descendants
    outside [-X, X] stay on w's side, with |Re| >= rho and Im <= Im w.
    The first descendant v inside [-X, X] has a parent u with |u - v| >=
    rho - X = D, so by (i) Im v <= J Im w/D^2 < e^{-R}, and heights only
    fall after it.

    A b within `height_classify`'s rounding bound, |b| <= (d + 2) eps S
    with S = |beta| + sum c_k |x_k|, enters as F = F0 + b with F0 of drift
    exactly 0: a root of F(v) = u is a root of F0(v) = u - b, its target
    moved by the real |b|, as a solve residual r moves it by |r|.  Far out
    each atom term of F(v) is about -c_k x_k, so F(v) in floats alone errs
    by about d eps S, the size of |b|'s bound: the residuals, accepted up
    to 1e-12 max(1, |z|), are no smaller.  (i)-(iii) hold for F0 at
    targets moved by |b| + |r|, which moves Re by that much against
    margins of about J/rho in (ii) and X in (iii), and the bound of (i)
    by a relative 2 (|b| + |r|)/D.
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
    x0 = max(abs(x_lo), abs(x_hi), *(abs(x) for x, _ in F.atoms))
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
        rho, im = np.abs(roots.real), roots.imag
        q = rho * (rho - x0) - jump
        hopeless = (q > 0) & (jump * im * rho ** 2 < eps * q ** 2)
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
