"""Backward-orbit machinery over the solenoid and the disk.

Backward orbits are complex arrays z_0, z_{-1}, ..., z_{-n} (rows of an
(m, n + 1) array for m orbits), all stepped by one generation-batched walk:
by a branch policy, or at random by exact height ratios from the gap ratio
(1 - |w|^2)/(1 - |F(w)|^2), which also gives the log gaps near the circle.
Also: the exponential map to geodesic-flow coordinates and its
intertwining, box masses of the natural measure, the total-mass check
against the Lyapunov exponent, radial shadowing statistics, and the
good/bad-times shadowing simulation in the upper half-plane.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, NumericalError, PreconditionError
from .hypgeo import disk_distance, origin_distance
from .innerfn import BLOCK_ENTRIES, InnerModel, _require_blaschke
from .lyapunov import chi_jensen_oracle
from .preimage import preimages_of_batch

log = logging.getLogger("innerlab.lamination")
_CELLS_RECORD = ("total_mass_check: %d cells outside, %d inside, "
                 "%d evaluated; %d points evaluated")

EXP_MAP_CAP = 1.0
TREE_BUDGET = 2 * 10 ** 6


# ---------------------------------------------------------------------------
# Backward orbits


def _sort_roots(roots):
    """Deterministic (argument, modulus) order, rowwise."""
    order = np.lexsort((np.abs(roots).round(12), np.angle(roots).round(12)),
                       axis=1)
    return roots[np.arange(len(roots))[:, None], order]


def _walk(F: InnerModel, starts, n: int, choose) -> np.ndarray:
    """The (m, n + 1) coordinates of backward orbits from the m `starts`,
    one preimage solve per generation; `choose` maps the parent column and
    the (m, d) roots, sorted rowwise by `_sort_roots`, to a branch per row."""
    if n < 0:
        raise PreconditionError("only backward coordinates exist")
    coords = np.empty((len(starts), n + 1), dtype=complex)
    coords[:, 0] = starts
    rows = np.arange(len(starts))
    for k in range(n):
        roots = _sort_roots(preimages_of_batch(F, coords[:, k]))
        coords[:, k + 1] = roots[rows, choose(coords[:, k], roots)]
    return coords


def _branch_weights(F: InnerModel, z, roots):
    """Weights p_j = log(1/|w_j|)/log(1/|z|) of the preimages w_j (rows of
    `roots`) of the points z, exact at any depth: log1p(-x g_j)/log1p(-x)
    with x = 1 - |z|^2, g_j = F.gap_ratio(w_j) = (1 - |w_j|^2)/x (near the
    origin, the logs of |z|^2 and |w_j|^2).  On the circle x is 0 or a
    few ulp, and p_j is the limit g_j = 1/|F'(w_j)| to rounding.  They sum
    to 1 (the height identity inside, invariance of Lebesgue measure on
    the circle); a sum off by more than 1e-10 raises NumericalError."""
    def log_mod2(mod, gap):
        return np.where(gap < 0.5, np.log1p(-gap), 2.0 * np.log(mod))

    mod = np.abs(z)[:, None]
    x = (1.0 - mod) * (1.0 + mod)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = F.gap_ratio(roots)
        p = np.where(x > 0, log_mod2(np.abs(roots), x * g) / log_mod2(mod, x), g)
    total = np.sum(p, axis=1)
    off = np.abs(total - 1.0) > 1e-10
    if np.any(off):
        raise NumericalError(f"branch weights sum to {total[off][0]}, not 1",
                             context=F)
    return p


def _weighted_walk(F: InnerModel, starts, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """`_walk` drawing each branch by `_branch_weights`, as
    `rng.choice(d, p=row)` draws it, row after row."""

    def choose(z, roots):
        cdf = np.cumsum(_branch_weights(F, z, roots), axis=1)
        return np.sum(cdf / cdf[:, -1:] <= rng.random((len(z), 1)), axis=1)

    return _walk(F, starts, n, choose)


def branch_orbit(F: InnerModel, z0, n: int, policy) -> np.ndarray:
    """The backward orbit z_0, ..., z_{-n} that takes branch `policy(roots)`
    of the sorted preimages at every step."""
    return _walk(F, [complex(z0)], n,
                 lambda z, roots: [policy(row) for row in roots])[0]


def sample_interior_orbit(F: InnerModel, z0, n: int, seed: int = 0) -> np.ndarray:
    """Backward orbit z_0, ..., z_{-n} from an interior point with branches
    drawn from the transverse weights log(1/|w|)/log(1/|z|), exact at any
    depth (see `_branch_weights`)."""
    _require_blaschke(F)
    z0 = complex(z0)
    if not 0 < abs(z0) < 1:
        raise PreconditionError("start must lie in 0 < |z0| < 1")
    return _weighted_walk(F, [z0], n, np.random.default_rng(seed))[0]


def solenoid_orbits(F: InnerModel, n: int, paths: int = 1,
                    seed: int = 0) -> np.ndarray:
    """(paths, n + 1) boundary orbits sampling the natural extension of
    Lebesgue measure m: a uniform start angle, then the preimage u' of u
    with probability 1/|F'(u')|.  These transfer weights sum to 1, which is
    invariance of m (so every column is m-distributed); a sum off by more
    than 1e-10 raises NumericalError."""
    _require_blaschke(F, reject_rotation=True)
    rng = np.random.default_rng(seed)
    starts = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=paths))
    return _weighted_walk(F, starts, n, rng)


def log_boundary_gaps(F: InnerModel, coords) -> np.ndarray:
    """log(1 - |z_{-n}|) along a backward orbit, exact at any depth:
    log(1 - |z_0|^2) plus the running sum of log F.gap_ratio(z_{-k})
    = log((1 - |z_{-k}|^2)/(1 - |z_{-k+1}|^2)), minus log(1 + |z_{-n}|).
    The gap ratio needs no subtraction near the circle, so the gaps stay
    exact where the coordinates collapse onto the circle in doubles."""
    pts = np.asarray(coords, dtype=complex)
    mod = np.abs(pts)
    if mod[0] >= 1.0:
        raise PreconditionError("base point is on the circle")
    ratios = np.concatenate(([(1.0 - mod[0]) * (1.0 + mod[0])], F.gap_ratio(pts[1:])))
    return np.cumsum(np.log(ratios)) - np.log1p(mod)


# ---------------------------------------------------------------------------
# Exponential map and geodesic flow


def _leading(coords, upto: int) -> np.ndarray:
    """The coordinates z_0, ..., z_{-upto} of a backward orbit."""
    if upto < 0:
        raise PreconditionError("n_approx must be nonnegative")
    coords = np.asarray(coords, dtype=complex)
    if len(coords) < upto + 1:
        raise PreconditionError(f"orbit too short: need {upto + 1} coordinates")
    return coords[: upto + 1]


def _chain_derivs(F: InnerModel, coords: np.ndarray) -> np.ndarray:
    """D[n] = |(F^n)'(u_{-n})| along a boundary orbit, D[0] = 1."""
    mods = F.boundary_deriv_modulus(coords)
    return np.concatenate(([1.0], np.cumprod(mods[1:])))


def exponential_map(F: InnerModel, coords, t: float, n_approx: int) -> complex:
    """The n_approx-th approximant of the 0-coordinate of E(u, t),
    F^n(u_{-n} + v_{-n}) with v_{-n} = -t u_{-n}/|(F^n)'(u_{-n})| and
    n = n_approx, for the boundary orbit `coords` = (u_0, u_{-1}, ...).

    `t` must stay below EXP_MAP_CAP so the perturbed point remains in the
    disk.
    """
    if not 0 < t < EXP_MAP_CAP:
        raise DomainError(f"flow parameter t = {t} outside (0, {EXP_MAP_CAP})")
    coords = _leading(coords, n_approx)
    start = coords[-1] * (1.0 - t / _chain_derivs(F, coords)[-1])
    if abs(start) >= 1.0:
        raise DomainError("perturbed start left the disk; reduce t")
    return complex(F.iterate(start, n_approx))


def geodesic_intertwining_check(F: InnerModel, coords, t: float, s: float,
                                n_approx: int) -> float:
    """Hyperbolic discrepancy between the geodesic flow of E(u, t) by time s
    realized two ways: directly as E(u, e^s t), and by re-basing the
    approximation k = max(1, ceil|s|) indices deeper and applying F^k.

    Exactly 0 at s = 0 (both sides collapse to the same approximant).
    """
    if not (0 < t < EXP_MAP_CAP and 0 < math.exp(s) * t < EXP_MAP_CAP):
        raise DomainError(f"both t and e^s t must lie in (0, {EXP_MAP_CAP})")
    if s == 0:
        return 0.0
    k = max(1, math.ceil(abs(s)))
    coords = _leading(coords, n_approx + k)

    side_a = exponential_map(F, coords, math.exp(s) * t, n_approx)
    # E(u, e^s t)_{-k} = E(shifted orbit, e^s t / |(F^k)'(u_{-k})|)_0.
    t_shift = math.exp(s) * t / _chain_derivs(F, coords[: k + 1])[k]
    deep = exponential_map(F, coords[k:], t_shift, n_approx)
    side_b = complex(F.iterate(deep, k))
    return float(disk_distance(side_a, side_b))


def h_action_limit(F: InnerModel, coords, w: complex, n_approx: int) -> complex:
    """The 0-coordinate of L(z, w) = lim F^n(Z_{-n}(w)) for an interior
    backward orbit, where Z_j(w) = z_j/|z_j| + (z_j - z_j/|z_j|) (w/i)."""
    z = complex(_leading(coords, n_approx)[-1])
    u = z / abs(z)
    start = u + (z - u) * (w / 1j)
    if abs(start) >= 1.0:
        raise DomainError("half-plane parameter maps outside the disk")
    return complex(F.iterate(start, n_approx))


def fixedpoint_orbit_point(tau: complex, d: int, j: int) -> complex:
    """z_{-j} = exp(-tau d^{-j}) on the leaf of z^d through the boundary
    fixed point 1; Re tau > 0."""
    return complex(np.exp(-tau * float(d) ** (-j)))


def leaf_depth_for(d: int) -> int:
    """Approximation depth balancing the d^-n truncation error of the
    H-action limit against its d^n roundoff amplification."""
    return max(8, int(round(18.0 / math.log(d))))


def gh_commutation_discrepancy(d: int, tau: complex, s: float,
                               t: float) -> float:
    """Numeric realization of g_{-t} h_s = h_{e^t s} g_{-t} on the z^d
    fixed-point leaf.

    Orbits on this leaf have coordinates exp(-tau' d^j); the flows act on
    the parameter by g_t: Re tau -> e^t Re tau and h_s: Im tau -> Im tau
    - s Re tau.  Each side is realized through the H-action limit applied
    to numerically computed orbits at depth `leaf_depth_for(d)`, and the
    0-coordinates are compared.
    """
    if tau.real <= 0:
        raise PreconditionError("leaf parameter needs Re tau > 0")
    n_approx = leaf_depth_for(d)
    F = InnerModel.power_map(d)

    def orbit_array(tau_val: complex, upto: int) -> np.ndarray:
        return np.array([fixedpoint_orbit_point(tau_val, d, j)
                         for j in range(upto + 1)])

    def apply_h(tau_val: complex, sigma: float) -> complex:
        """h_sigma via the H-action limit; returns the measured parameter."""
        coords = orbit_array(tau_val, n_approx)
        out = h_action_limit(F, coords, 1j + sigma, n_approx)
        # Invert z_0 = exp(-tau): the measured parameter of the new orbit.
        return -complex(np.log(out))

    def apply_g(tau_val: complex, time: float) -> complex:
        return complex(tau_val.real * math.exp(time), tau_val.imag)

    lhs = apply_g(apply_h(tau, s), -t)
    rhs = apply_h(apply_g(tau, -t), math.exp(t) * s)
    z_lhs = fixedpoint_orbit_point(lhs, d, 0)
    z_rhs = fixedpoint_orbit_point(rhs, d, 0)
    return float(disk_distance(z_lhs, z_rhs))


# ---------------------------------------------------------------------------
# Box masses of the natural measure


@dataclass(frozen=True)
class AnnularBox:
    """r_lo <= |z| <= r_hi, theta_lo <= arg z <= theta_hi."""

    r_lo: float
    r_hi: float
    theta_lo: float
    theta_hi: float

    def __post_init__(self):
        if not 0.0 < self.r_lo < self.r_hi < 1.0:
            raise PreconditionError("box must sit strictly between 0 and the circle")
        if not self.theta_lo < self.theta_hi:
            raise PreconditionError("empty angular range")


@dataclass(frozen=True)
class BoxMassEstimate:
    depth: int
    value: float
    error: float


def _xi_integrand(F: InnerModel, z: np.ndarray, max_depth: int) -> list:
    """[sum over F^n(w) = z of log(1/|w|) ||(F^n)'(w)||_hyp^{-2}
    for n = 0..max_depth], from one walk down the preimage tree of z."""
    m = z.size
    pts = z.reshape(-1)
    base = (1.0 - np.abs(pts) ** 2)[:, None]
    chain = np.ones(m)
    sums = []
    for depth in range(max_depth + 1):
        if depth:
            roots = preimages_of_batch(F, pts)
            chain = (chain[:, None] * np.abs(F.deriv(roots))).reshape(-1)
            pts = roots.reshape(-1)
        sums.append(_preimage_sum(chain.reshape(m, -1), pts.reshape(m, -1),
                                  base).reshape(z.shape))
    return sums


def _preimage_sum(chain, leaves, base):
    """Row sums of log(1/|w|) / ||(F^n)'(w)||_hyp^2 over the leaves w of each
    base point, from |(F^n)'(w)| (`chain`) and 1 - |base|^2 (`base`)."""
    # Its own function so that a level's temporaries are freed before the
    # next level's root solve, which sets the walk's peak memory.
    hyp_norm = chain * (1.0 - np.abs(leaves) ** 2) / base
    return (np.log(1.0 / np.abs(leaves)) / hyp_norm ** 2).sum(axis=1)


def xi_box_mass(F: InnerModel, region: AnnularBox, max_depth: int,
                grid: tuple = (24, 24)) -> list:
    """Estimates for depths n = 0..max_depth of (1/2pi) int_{F^{-n}(A)}
    log(1/|z|) dA_hyp, by change of variables: a tensor Gauss-Legendre grid
    over A of the preimage sum, with the error estimated by grid
    refinement.  Each grid's preimage tree is walked once, to the deepest
    depth.  If both grids' leaves at some depth exceed the budget, raises
    BudgetError carrying the estimates for the shallower depths."""
    if max_depth < 0 or min(grid) < 1:
        raise PreconditionError(f"need max depth {max_depth} >= 0 and at least one "
                                f"node a side in the quadrature grid {grid}")
    grids = (grid, (grid[0] + grid[0] // 2 + 1, grid[1] + grid[1] // 2 + 1))
    leaves = sum(nr * nt for nr, nt in grids)
    reach = -1
    while reach < max_depth and F.degree ** (reach + 1) * leaves <= 64 * TREE_BUDGET:
        reach += 1

    def values_at(nr: int, nt: int) -> list:
        xr, wr = np.polynomial.legendre.leggauss(nr)
        xt, wt = np.polynomial.legendre.leggauss(nt)
        r = 0.5 * (region.r_hi - region.r_lo) * (xr + 1.0) + region.r_lo
        th = 0.5 * (region.theta_hi - region.theta_lo) * (xt + 1.0) + region.theta_lo
        jac = 0.25 * (region.r_hi - region.r_lo) * (region.theta_hi - region.theta_lo)
        R, TH = np.meshgrid(r, th, indexing="ij")
        Z = R * np.exp(1j * TH)
        return [jac * float(np.einsum("i,j,ij->", wr, wt,
                                      s * 4.0 * R / (1.0 - R ** 2) ** 2)) / (2.0 * np.pi)
                for s in _xi_integrand(F, Z, reach)]

    coarse, fine = (values_at(*g) for g in grids)
    estimates = [BoxMassEstimate(n, f, abs(f - c))
                 for n, (c, f) in enumerate(zip(coarse, fine))]
    if reach < max_depth:
        raise BudgetError(f"depth {reach + 1} exceeds the quadrature budget",
                          partial=estimates)
    return estimates


# ---------------------------------------------------------------------------
# Total mass vs the Lyapunov exponent


@dataclass(frozen=True)
class TotalMassResult:
    mass: float
    stderr: float
    chi_ref: float
    r0: float
    samples: int


def _fundamental_outer_radius(F: InnerModel, r0: float) -> float:
    """Smallest radius that provably contains E* = F^{-1}(B(0,r0)) \\ B(0,r0):
    bisect the sharp factorwise lower bound on |F| along hyperbolic radii."""
    D_i = [origin_distance(abs(a)) for a in F.zeros]
    d_target = origin_distance(r0)

    def lower_bound(D: float) -> float:
        out = 1.0
        for Di in D_i:
            if D <= Di:
                return 0.0
            out *= math.tanh((D - Di) / 2.0)
        return out

    lo, hi = d_target, d_target + sum(D_i) + 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lower_bound(mid) >= r0:
            hi = mid
        else:
            lo = mid
    return min(math.tanh(hi / 2.0), 1.0 - 1e-15)


def _cell_bounds(F: InnerModel, r_lo, r_hi, th_lo, th_hi):
    """Bounds lo <= |F(z)|^2 <= hi over the polar cells r_lo <= |z| <= r_hi,
    th_lo <= arg z <= th_hi (broadcast arrays), factor by factor, and the
    rounding scale E = sum_a (1 + |a|) / min |1 - conj(a) z| over each cell.

    A zero a contributes the range of 1 - (1 - |a|^2)(1 - r^2) / D with
    D = |1 - conj(a) z|^2 = (1 - |a| r)^2 + 4 |a| r sin^2((theta - arg a)/2),
    a sum of two nonnegative terms, each bounded on its own: the first by
    the radial edges (so D >= (1 - |a| r_hi)^2 > 0), the second by the exact
    range of sin^2 on [th_lo, th_hi], which is 0 or 1 where the cell holds
    arg a or arg a + pi.  An origin zero is the case a = 0, giving r^2.
    """
    g_lo, g_hi = 1.0 - r_hi, 1.0 - r_lo
    width = th_hi - th_lo
    lo, hi, scale = 1.0, 1.0, 0.0
    for a in F.zeros:
        m, phi = abs(a), cmath.phase(a)
        s_lo = np.sin(0.5 * (th_lo - phi)) ** 2
        s_hi = np.sin(0.5 * (th_hi - phi)) ** 2
        s_min = np.where(np.mod(phi - th_lo, 2.0 * np.pi) <= width, 0.0,
                         np.minimum(s_lo, s_hi))
        s_max = np.where(np.mod(phi + np.pi - th_lo, 2.0 * np.pi) <= width, 1.0,
                         np.maximum(s_lo, s_hi))
        # 1 - |a| r = (1 - |a|) + |a| (1 - r): no cancellation near the circle.
        d_min = ((1.0 - m) + m * g_lo) ** 2 + 4.0 * m * r_lo * s_min
        d_max = ((1.0 - m) + m * g_hi) ** 2 + 4.0 * m * r_hi * s_max
        lo = lo * np.maximum(1.0 - (1.0 - m * m) * g_hi * (2.0 - g_hi) / d_min, 0.0)
        hi = hi * (1.0 - (1.0 - m * m) * g_lo * (2.0 - g_lo) / d_max)
        scale = scale + (1.0 + m) / np.sqrt(d_min)
    return lo, hi, scale


def _row_integrals(u_edge):
    """int log(1/r) 4 r / ((1 - r)(1 + r)^2) du over each row [u_edge[k],
    u_edge[k + 1]], r = 1 - e^u.

    With v = r^2 the integrand is -log v / (1 - v)^2 dv, whose antiderivative
    is G(v) = -(v log v / (1 - v) + log(1 - v)).  At an edge, 1 - v =
    e (2 - e) and log v = 2 log1p(-e), so log(1 - v) = u + log(2 - e), and
    the difference G(v_out) - G(v_in) is taken term by term: the u terms
    give the row's width, the log(2 - e) terms a log1p, and what is left of
    G is bounded by 1.  Nothing cancels near the circle."""
    e = np.exp(u_edge)
    rest = (1.0 - e) ** 2 * 2.0 * np.log1p(-e) / (e * (2.0 - e))
    return np.diff(rest) + np.diff(u_edge) + np.log1p(-np.diff(e) / (2.0 - e[:-1]))


def _strata(F: InnerModel, r0: float, samples: int, seed: int):
    """Per stratum of `total_mass_check` (row-major over 16 rows in u and
    16 columns in theta): the mean of the weighted membership indicator
    and the variance of that mean; the mask of the strata wholly inside E*;
    and the draws per sampled stratum."""
    r1 = _fundamental_outer_radius(F, r0)
    u_lo, u_hi = math.log(1.0 - r1), math.log(1.0 - r0)
    L = u_hi - u_lo
    su, st = 16, 16

    # Row iu spans u in [u_lo + L iu/su, u_lo + L (iu + 1)/su], so its outer
    # radius is r_edge[iu] and its inner one r_edge[iu + 1].
    u_edge = u_lo + L * np.arange(su + 1) / su
    r_edge = 1.0 - np.exp(u_edge)
    th_edge = 2.0 * np.pi * np.arange(st + 1) / st
    lo, hi, scale = _cell_bounds(F, r_edge[1:, None], r_edge[:-1, None],
                                 th_edge[:-1], th_edge[1:])
    delta = 128.0 * np.finfo(float).eps * scale / r0 ** 2
    outside = (lo > r0 * r0 * (1.0 + delta)).ravel()
    inside = (hi < r0 * r0 * (1.0 - delta)).ravel()

    seeds = np.random.SeedSequence(seed).spawn(su * st)
    per = max(samples // (su * st), 16)
    means = np.zeros(su * st)
    variances = np.zeros(su * st)
    # A row's mean is L times the average of the integrand over its width
    # L/su, and the indicator is 1 on an inside stratum.
    means[inside] = su * _row_integrals(u_edge)[np.flatnonzero(inside) // st]
    evaluated = np.flatnonzero(~(outside | inside))
    for cell in evaluated:
        iu, it = divmod(int(cell), st)
        rng = np.random.default_rng(seeds[cell])
        u = u_lo + L * (iu + rng.uniform(size=per)) / su
        th = 2.0 * np.pi * (it + rng.uniform(size=per)) / st
        r = 1.0 - np.exp(u)
        z = r * np.exp(1j * th)
        f = np.where(np.abs(F.eval(z)) < r0,
                     L * np.log(1.0 / r) * 4.0 * r / ((1.0 - r) * (1.0 + r) ** 2),
                     0.0)
        means[cell] = np.mean(f)
        variances[cell] = np.var(f, ddof=1) / per
    log.debug(_CELLS_RECORD, int(outside.sum()), int(inside.sum()),
              len(evaluated), len(evaluated) * per)
    return means, variances, inside, per


def total_mass_check(F: InnerModel, r0: float, samples: int = 10 ** 6,
                     seed: int = 0) -> TotalMassResult:
    """(1/2pi) int_{E*} log(1/|z|) dA_hyp over the fundamental annulus
    E* = F^{-1}(B(0,r0)) \\ B(0,r0), over a fixed 16 x 16 grid of strata
    uniform in (log(1-r), theta); approaches chi as r0 -> 1.

    Before drawing, `_cell_bounds` encloses |F|^2 over each stratum, and
    the stratum is one of three kinds:
    - wholly outside E* (lo > r0^2 (1 + delta)): its mean and variance are
      0.0;
    - wholly inside (hi < r0^2 (1 - delta)): its mean is the exact
      integral over its row (`_row_integrals`) and its variance 0.0;
    - otherwise it is sampled: `samples // 256` draws (at least 16) from its
      own substream spawned from `seed`, each tested for |F(z)| < r0.
    The mass is the mean of the 256 means, and `stderr` covers the sampled
    strata only, the one source of noise.  Results are bit-identical for a
    given `seed`, and `samples` reports the nominal budget per * 256.

    The margin delta is what makes the two closed forms valid: every point
    of an outside stratum fails |F(z)| < r0 and every point of an inside
    one passes it, including the points a sample would land on after
    rounding.  delta = 128 eps E / r0^2 with the cell's rounding scale E =
    sum_a (1 + |a|) / min |1 - conj(a) z|, which is at least the degree.
    It covers three errors, each a multiple of eps E:
    - `eval`'s rounding of |F|: eps (1 + |a| r)/|1 - conj(a) z| per factor
      for its denominator, plus a few eps per factor for the quotient and
      the product, under 11 eps E in all;
    - a sample off its stratum by the rounding of u, exp, theta and
      r e^{i theta}, at most about 25 eps in |z|, which moves |F| by at most
      that times the factors' Lipschitz constants, whose sum is E;
    - the bound's own rounding: each factor's range is formed from sums of
      nonnegative terms, within about 10 eps absolute, 10 d eps in all.
    Near |F| = r0 the first two move |F|^2 by at most 2 r0 (36 eps E) and
    the third by 10 eps E, together under 82 eps E, which is 82 eps E / r0^2
    of r0^2; the factor 128 leaves the rest for second-order terms.  A wide
    delta only sends more strata to sampling.  E, and with it delta,
    grows like 1/(1 - |a|) for a zero a near the circle.
    """
    _require_blaschke(F, reject_rotation=True)
    if not (0 < r0 < 1 and samples >= 1):
        raise PreconditionError(f"need r0 in (0, 1) and samples >= 1, "
                                f"got {r0:g}, {samples}")
    means, variances, _, per = _strata(F, r0, samples, seed)
    mass = float(np.mean(means))
    se = float(np.sqrt(np.sum(variances))) / means.size
    return TotalMassResult(mass, se, chi_jensen_oracle(F).value, r0,
                           per * means.size)


# ---------------------------------------------------------------------------
# Radial shadowing of interior backward orbits


@dataclass(frozen=True)
class RadialShadowingStat:
    value: float
    conclusive: bool
    limit_angle: float


def radial_shadowing_stat(F: InnerModel, coords) -> RadialShadowingStat:
    """Best-offset time average of min(1, d(z_{-n}, radial ray)) along the
    interior backward orbit `coords`, with time parameter -log(1 - |z_{-n}|)
    and the offset searched over [-4, 4] in steps of 0.01.

    The ray points at the empirical limit angle (circular mean of the last
    quarter); if that quarter has angular spread above 0.1 rad the result
    is flagged inconclusive.  Every distance is the exact sinh^2(d/2) =
    |z - w|^2/((1 - |z|^2)(1 - |w|^2)) in (angle, log gap) coordinates
    (gaps from `log_boundary_gaps`), so it stays exact past the depth where
    coordinates collapse onto the circle in doubles.  The 801 offsets go
    in blocks of BLOCK_ENTRIES // n rows, so the temporaries stay
    cache-sized at any orbit length.
    """
    pts = np.asarray(coords, dtype=complex)
    if np.any(pts == 0):
        raise PreconditionError("the constant orbit at 0 is excluded")
    angles_tail = np.angle(pts[3 * len(pts) // 4:])
    mean_dir = np.mean(np.exp(1j * angles_tail))
    theta = float(np.angle(mean_dir))
    spread = float(np.max(np.abs(np.angle(np.exp(1j * (angles_tail - theta))))))
    conclusive = spread <= 0.1

    lh = log_boundary_gaps(F, pts)
    order = np.argsort(-lh)
    times, lh = -lh[order], lh[order]
    half = 0.5 * np.angle(pts[order] * np.exp(-1j * theta))
    # Per offset, the ray points w = 1 - e^ray, clamped at the origin; with
    # z = (1 - e^lh) e^{2i half}, sinh^2(d/2) is (4 sinh^2((lh - ray)/2) +
    # 4 (1 - e^lh)(1 - e^ray) sin^2(half) e^{-lh-ray}) / ((2 - e^lh)(2 - e^ray)).
    offsets = np.arange(-400, 401)[:, None] / 100.0
    span = times[-1] - times[0]
    rows = max(1, BLOCK_ENTRIES // len(lh))
    avg = np.empty(len(offsets))
    em_lh = np.expm1(lh)
    with np.errstate(divide="ignore", over="ignore"):
        log_sin2 = 2.0 * np.log(np.abs(np.sin(half))) - lh
        for i in range(0, len(offsets), rows):
            ray = np.minimum(lh - offsets[i:i + rows], 0.0)
            cross = em_lh * np.expm1(ray) * np.exp(log_sin2 - ray)
            s2 = 4.0 * (np.sinh(0.5 * (lh - ray)) ** 2 + cross) / (
                (1.0 - em_lh) * (1.0 - np.expm1(ray)))
            dist = np.minimum(1.0, 2.0 * np.arcsinh(np.sqrt(s2)))
            avg[i:i + rows] = (np.trapezoid(dist, times, axis=1) / span
                               if span > 0 else dist[:, 0])
    return RadialShadowingStat(float(np.min(avg)), conclusive, theta)


# ---------------------------------------------------------------------------
# Shadowing simulation in the upper half-plane


@dataclass(frozen=True)
class ShadowingRun:
    zeta: float
    times: np.ndarray
    avg_curve: np.ndarray
    final_avg: float


def bad_times_pow2(T: float) -> list:
    """The vanishing-upper-density family union of [2^k, 2^k + k]."""
    if not math.isfinite(T):
        raise PreconditionError(f"horizon T = {T:g} must be finite")
    out = []
    k = 1
    while 2.0 ** k <= T:
        out.append((2.0 ** k, min(2.0 ** k + k, T)))
        k += 1
    return out


ADVERSARIES = {
    # Unit-speed up-and-right: "worse than the worst case".
    "up_right": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    # Pure horizontal drift.
    "right": (1.0, 0.0),
}


_U_CAP = 1e12


def shadowing_simulation(bad_times, T: float, adversary: str = "up_right",
                         start: complex = 1j, step: float = 0.02) -> ShadowingRun:
    """Integrate a driver that steers gamma' = v_down at good times while an
    adversary policy (unit hyperbolic speed) takes over on the bad set.

    Both passes are exact on each good or bad segment of [0, T], where the
    dynamics are affine, so `step` only sets the spacing of the output time
    grid (each segment gets an evenly spaced grid of at most that spacing).
    The horizontal hyperbolic distance to the vertical line at the landing
    estimate zeta = x(T) is obtained from the backward ratio
    u = (zeta - x)/y (du/dt = u at good times, -a_x - a_y u at bad times,
    u(T) = 0), which stays well scaled where x - zeta and y separately
    underflow; the returned curve is the running average of min(1, |u|).
    """
    if adversary not in ADVERSARIES:
        raise PreconditionError(f"unknown adversary {adversary!r}")
    ax, ay = ADVERSARIES[adversary]
    if not (step > 0 and 0 < T < math.inf and 0 < start.imag < math.inf):
        raise PreconditionError("need step > 0, 0 < T < inf and 0 < Im start < inf, "
                                f"got {step:g}, {T:g}, {start}")
    if callable(bad_times):
        raise PreconditionError("pass bad times as a sorted interval list")
    intervals = [(float(a), float(b)) for a, b in bad_times if a < b]

    # Regime breakpoints across [0, T].
    cuts = [0.0, T]
    for a, b in intervals:
        cuts.extend((min(max(a, 0.0), T), min(max(b, 0.0), T)))
    cuts = sorted(set(cuts))

    # Forward pass: landing estimate zeta = x(T).  At bad times
    # dx/dt = a_x e^ly and d(ly)/dt = a_y, so x integrates in closed form;
    # x freezes once y underflows, which loses nothing representable.
    x, ly = start.real, math.log(start.imag)
    segments = []
    for seg_a, seg_b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (seg_a + seg_b)
        bad = any(a <= mid < b for a, b in intervals)
        length = seg_b - seg_a
        n_steps = max(1, int(math.ceil(length / step)))
        if length / n_steps < 1e-12:
            raise NumericalError("step size underflow in shadowing integration")
        segments.append((bad, np.linspace(seg_a, seg_b, n_steps + 1)))
        if not bad:
            ly -= length
        elif ay != 0.0:
            x += ax / ay * (math.exp(min(ly + ay * length, 700.0))
                            - math.exp(min(ly, 700.0)))
            ly += ay * length
        else:
            x += ax * math.exp(min(ly, 700.0)) * length
    zeta = float(x)

    # Backward pass for u(t), solved in s = b - t from the value u_b at the
    # right end b of each segment.  Clipping the grid values equals clamping
    # every step: backward, |u| only shrinks at good times and
    # |u + a_x/a_y| only grows at bad times.  The exponent cap keeps the
    # factor finite (no 0 * inf at the fixed point u_b = -a_x/a_y) and the
    # product too, as |u_b + a_x/a_y| <= 1 + _U_CAP; capped values still
    # clip to +-_U_CAP.
    u_parts = [np.zeros(1)]
    u_b = 0.0
    for bad, t in segments[::-1]:
        s = t[-1] - t[:-1]
        if not bad:
            u = u_b * np.exp(-s)
        elif ay != 0.0:
            grow = np.exp(np.minimum(ay * s, 700.0 - math.log1p(_U_CAP)))
            u = (u_b + ax / ay) * grow - ax / ay
        else:
            u = u_b + ax * s
        u = np.clip(u, -_U_CAP, _U_CAP)
        u_parts.append(u)
        u_b = u[0]
    ts = np.concatenate([t[:-1] for _, t in segments] + [[cuts[-1]]])
    u = np.concatenate(u_parts[::-1])
    dist = np.minimum(1.0, np.abs(u))
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (dist[1:] + dist[:-1])
                                           * np.diff(ts))))
    with np.errstate(invalid="ignore", divide="ignore"):
        avg_curve = np.where(ts > 0, cum / np.maximum(ts, 1e-300), 0.0)
    return ShadowingRun(zeta, ts, avg_curve, float(avg_curve[-1]))
