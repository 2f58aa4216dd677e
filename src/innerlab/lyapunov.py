"""Lyapunov exponent of the boundary map, three independent ways.

chi = (1/2pi) int log |F'(e^{i theta})| d theta, computed by adaptive
quadrature of the angular-derivative sum, by Jensen's formula applied to
F' (the oracle route, on F's factors and the package's Aberth loop), and
by a Birkhoff average along independent boundary orbits.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from ._quadrature import _integrate
from ._roots import _aberth_polish
from .errors import NumericalError, PreconditionError
from .innerfn import (BLOCK_ENTRIES, InnerModel, _boundary_value,
                      _require_blaschke)

TWO_PI = 2.0 * np.pi
_JENSEN_MAX_ITER = 500
_JENSEN_MAX_ERROR = 1e-6

log = logging.getLogger("innerlab.lyapunov")
_BIRKHOFF_RECORD = ("chi_birkhoff: %d lanes, %d-%d steps per lane, %d chunks; "
                    "orbit phase %.3f s, kernel phase %.3f s")


@dataclass(frozen=True)
class LyapunovEstimate:
    """A chi estimate with its method tag and error estimate (absolute for
    quadrature/jensen, one standard error for birkhoff)."""

    value: float
    method: str
    error: float


def chi_quadrature(F: InnerModel, tol: float = 1e-10) -> LyapunovEstimate:
    """Adaptive quadrature of (1/2pi) int log |F'| d theta over one turn,
    with a break at each distinct atom angle, where |F'| = +inf.

    On atom models tol is floored at 1e-12, below which panels reach the
    +inf within 1e-13 of an atom.  A non-finite estimate (atoms less than
    about 3e-11 apart) is a NumericalError; a missed tol is not: the
    achieved error is reported.
    """
    if F.is_rotation:
        return LyapunovEstimate(0.0, "quadrature", 0.0)
    tol = max(tol, 1e-12) if F.atoms else tol
    a = sorted({ang for ang, _ in F.atoms}) or [0.0]
    with np.errstate(invalid="ignore"):     # NaN panels raise below
        est, err, _, _ = _integrate(
            lambda theta: np.log(F.boundary_deriv_modulus(theta)),
            list(zip(a, [*a[1:], a[0] + TWO_PI])), tol * TWO_PI, 1e-13)
    if not math.isfinite(est):
        raise NumericalError("chi quadrature is not finite; atoms too close?",
                             context={"model": F})
    return LyapunovEstimate(est / TWO_PI, "quadrature", err / TWO_PI)


def _critical_poly(m, a, c, w, modulus=False):
    """p and p' at w, p = m Q + w h (h when m = 0), Q = prod f_a and h =
    sum_a c_a prod_{b != a} f_b, f_a = (w - a)(1 - conj(a) w): one pass
    over the f_a, with no expanded coefficient and no division by an f_a.
    With `modulus`, p is the sum of its terms' moduli instead."""
    ac = a.conj().reshape((-1,) + (1,) * np.ndim(w))
    t, d = 1.0 - ac * w, w - ac.conj()
    f, df = d * t, t - ac * d
    if modulus:
        f, df, w = np.abs(f), np.zeros(f.shape), np.abs(w)
    q, dq, h, dh = 1.0, 0.0, 0.0, 0.0
    for fk, dfk, ck in zip(f, df, c):
        h, dh = h * fk + ck * q, dh * fk + h * dfk + ck * dq
        q, dq = q * fk, dq * fk + q * dfk
    return (m * q + w * h, m * dq + h + w * dh) if m else (h, dh)


def _critical_points(F: InnerModel):
    """The critical points c_j of a finite Blaschke product F (no atoms,
    degree >= 2) that are not zeros of F, with m zeros at 0 and n distinct
    others a, of multiplicity k_a: zF'/F = p/Q (`_critical_poly`, c_a =
    k_a (1 - |a|^2)), and p vanishes at the c_j in the disk (n of them,
    n - 1 when m = 0) and at their reflections 1/conj(c_j).  The c_j come
    from the shared Aberth loop (at most _JENSEN_MAX_ITER steps: 20 zeros
    clustered at 1 take 160) on p with its outside roots divided out; an
    iterate that settles on an outside root is reflected back.  Returns
    (a, c_j, s_j, p'(c_j), whether the loop came to rest); nothing is
    raised.  To first order c_j is off by at most s_j/|p'(c_j)|, with s_j =
    |p(c_j)| plus p's rounding error (eps (4n + 4) times the sum of its
    terms' moduli): near a multiple critical point |p'| is small and the
    bound wide.
    """
    mult = {x: F.zeros.count(x) for x in F.zeros}
    m = mult.pop(0j, 0)
    a = np.array(list(mult), dtype=complex)
    c = np.array([k * (1.0 - abs(x) ** 2) for x, k in mult.items()])
    n_crit = len(a) if m else len(a) - 1

    def newton(w):
        p, dp = _critical_poly(m, a, c, w)
        wc = w.T.conj()
        return p / (dp + p * np.sum(wc / (1.0 - wc * w), axis=1, keepdims=True))

    turns = (np.arange(n_crit) + 0.354) / max(n_crit, 1)
    w = 0.5 * np.exp(2j * np.pi * turns + 0.41j)[:, None]
    with np.errstate(all="ignore"):
        rested = n_crit == 0 or _aberth_polish(newton, w, _JENSEN_MAX_ITER)
        crit = np.where(np.abs(w[:, 0]) > 1.0, 1.0 / w[:, 0].conj(), w[:, 0])
        p, dp = _critical_poly(m, a, c, crit)
        size = _critical_poly(m, a, c, crit, modulus=True)[0]
    return a, crit, np.abs(p) + (4 * len(a) + 4) * 2.2e-16 * size, dp, rested


def chi_jensen_oracle(F: InnerModel) -> LyapunovEstimate:
    """Jensen's formula applied to F' for a finite Blaschke product of
    degree >= 2, through its critical points c_j in the disk that are not
    zeros of F (`_critical_points`): p = K prod_j f_{c_j}, and each f has
    mean log-modulus 0 on the circle, so chi = log |K| = log |F'(zeta)| +
    2 sum_a log |zeta - a| - 2 sum_j log |zeta - c_j|, at zeta on the
    circle midway across the widest gap between the angles of the a and
    the c_j.  The error is the first-order bound on the c_j carried into
    this sum, at least 1e-12; a NumericalError when the loop does not rest,
    a c_j is not inside or the bound exceeds _JENSEN_MAX_ERROR (a multiple
    critical point, as at 0 for F(z) = B(z^k), k >= 4).
    """
    if F.atoms:
        raise PreconditionError("Jensen oracle needs a finite Blaschke product")
    if F.degree < 2:
        raise PreconditionError("Jensen oracle needs degree >= 2")
    a, crit, slack, dp, rested = _critical_points(F)
    ang = np.sort(np.angle(np.concatenate(([1.0], a, crit))))
    gap = np.diff(ang, append=ang[0] + TWO_PI)
    theta = ang[np.argmax(gap)] + 0.5 * np.max(gap)
    zeta = np.exp(1j * theta)
    chi = (math.log(F.boundary_deriv_modulus(theta))
           + 2.0 * np.sum(np.log(np.abs(zeta - a)))
           - 2.0 * np.sum(np.log(np.abs(zeta - crit))))
    err = float(np.sum(2.0 * slack / np.abs(dp * (zeta - crit))))
    inside = int(np.sum(np.abs(crit) < 1.0))
    if not (rested and inside == len(crit) and err <= _JENSEN_MAX_ERROR):
        moving = "" if rested else f", moving after {_JENSEN_MAX_ITER} steps"
        raise NumericalError(f"critical points of F: {inside} of {len(crit)} inside "
                             f"the disk, error bound {err:.1e}{moving}",
                             context={"model": F, "roots": crit})
    return LyapunovEstimate(float(chi), "jensen", max(err, 1e-12))


def chi_birkhoff(F: InnerModel, zeta0, n: int, seed: int = 0) -> LyapunovEstimate:
    """(1/n) sum of log |F'| over n boundary orbit points, split across
    min(32, n) independent orbits.

    Orbit 0 starts at zeta0, the others at angles drawn from `seed`; since
    Lebesgue measure is F-invariant every orbit is stationary.  The orbits
    advance together in complex coordinates renormalized to modulus 1 once
    each step, so they cannot drift off the circle.  The steps run in
    chunks of BLOCK_ENTRIES // lanes, so memory does not grow with n.  In
    each chunk the orbit phase steps the lanes through the rows of one
    preallocated array; the kernel phase then takes |F'| of the whole
    chunk in one Poisson-sum call and one log, zeroes the steps past each
    lane's share, and adds the rows to the running sums with one cumsum,
    row after row: the same sums, bit for bit, as adding one step at a
    time.  The error estimate is one standard error from the per-orbit
    means (inf for a single orbit).
    """
    _require_blaschke(F, reject_rotation=True)
    if n < 1:
        raise PreconditionError("need n >= 1")
    lanes = min(32, n)
    rng = np.random.default_rng(seed)
    starts = np.exp(1j * rng.uniform(0.0, TWO_PI, size=lanes - 1))
    steps = np.full(lanes, n // lanes)
    steps[: n % lanes] += 1
    chunk = min(BLOCK_ENTRIES // lanes, steps[0])
    orbit = np.empty((chunk + 1, lanes), dtype=complex)
    orbit[0] = np.concatenate(([_boundary_value(zeta0)], starts))
    sums = np.zeros(lanes)
    orbit_s = kernel_s = 0.0
    for start in range(0, steps[0], chunk):
        m = min(chunk, steps[0] - start)
        t0 = time.perf_counter()
        for k in range(m):
            row = orbit[k + 1]
            F._eval_block(orbit[k], row)
            np.divide(row, np.abs(row), out=row)
        t1 = time.perf_counter()
        logs = np.log(F._blocked(F._boundary_block, orbit[:m], float))
        logs[start + np.arange(m)[:, None] >= steps] = 0.0
        logs[0] += sums
        sums = np.cumsum(logs, axis=0)[-1]
        orbit[0] = orbit[m]
        orbit_s += t1 - t0
        kernel_s += time.perf_counter() - t1
    log.debug(_BIRKHOFF_RECORD, lanes, n // lanes, steps[0],
              -(-steps[0] // chunk), orbit_s, kernel_s)
    value = float(np.sum(sums) / n)
    if lanes == 1:
        return LyapunovEstimate(value, "birkhoff", math.inf)
    stderr = float(np.std(sums / steps, ddof=1) / math.sqrt(lanes))
    return LyapunovEstimate(value, "birkhoff", stderr)
