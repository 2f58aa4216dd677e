"""Lyapunov exponent of the boundary map, three independent ways.

chi = (1/2pi) int log |F'(e^{i theta})| d theta, computed by adaptive
quadrature of the angular-derivative sum, by Jensen's formula applied to
F' (the oracle route), and by a Birkhoff average along independent
boundary orbits.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._quadrature import _integrate
from .errors import NumericalError, PreconditionError
from .innerfn import (BLOCK_ENTRIES, InnerModel, _boundary_value,
                      _require_blaschke)

TWO_PI = 2.0 * np.pi
_ORIGIN_ROOT_TOL = 1e-8

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

    def __float__(self):
        return self.value


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


def chi_jensen_oracle(F: InnerModel) -> LyapunovEstimate:
    """Jensen's formula applied to F' for a finite Blaschke product of
    degree >= 2: chi = log |c_lead| + sum over nonzero critical points
    c_j in the disk of log(1/|c_j|), with c_lead the first nonzero Taylor
    coefficient of F' at the origin.

    Fails with a consistency error when the interior critical-point count
    is not degree - 1.
    """
    if F.atoms:
        raise PreconditionError("Jensen oracle needs a finite Blaschke product")
    d = F.degree
    if d < 2:
        raise PreconditionError("Jensen oracle needs degree >= 2")
    P, Q = F.rational_coeffs
    N = npoly.polysub(npoly.polymul(npoly.polyder(P), Q),
                      npoly.polymul(P, npoly.polyder(Q)))
    N = np.trim_zeros(N, "b")
    roots = np.roots(N[::-1])
    # A couple of Newton sweeps on N sharpen companion-matrix roots.
    dN = npoly.polyder(N)
    for _ in range(2):
        with np.errstate(all="ignore"):
            step = npoly.polyval(roots, N) / npoly.polyval(roots, dN)
        roots = np.where(np.isfinite(step) & (np.abs(step) < 0.1),
                         roots - step, roots)
    inside = roots[np.abs(roots) < 1.0]
    if len(inside) != d - 1:
        raise NumericalError(
            f"critical-point count {len(inside)} != degree-1 = {d - 1}",
            context={"model": F, "roots": roots})
    m = int(np.sum(np.abs(inside) < _ORIGIN_ROOT_TOL))
    # F' = N/Q^2 with Q(0) = 1 and N[j] = 0 for j < m.
    c_lead = N[m]
    if abs(c_lead) < _ORIGIN_ROOT_TOL:
        raise NumericalError("leading Taylor coefficient of F' inconsistent "
                             f"with critical multiplicity {m}")
    chi = math.log(abs(c_lead))
    for c in inside:
        if abs(c) >= _ORIGIN_ROOT_TOL:
            chi += math.log(1.0 / abs(c))
    return LyapunovEstimate(chi, "jensen", 1e-12)


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
