"""Lyapunov exponent of the boundary map, three independent ways.

chi = (1/2pi) int log |F'(e^{i theta})| d theta, computed by adaptive
quadrature of the angular-derivative sum, by Jensen's formula applied to
F' (the oracle route), and by a Birkhoff average along independent
boundary orbits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._quadrature import _integrate
from .errors import NumericalError, PreconditionError
from .innerfn import InnerModel, _boundary_value

log = logging.getLogger("innerlab.lyapunov")

TWO_PI = 2.0 * np.pi
_ORIGIN_ROOT_TOL = 1e-8


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
    """Adaptive quadrature of (1/2pi) int log |F'| d theta.

    Atom base points are +inf points of the integrand; each gets an
    exclusion window of half-width tol whose contribution is bracketed
    analytically with the 1/|zeta - z|^2 envelope and folded into the
    error estimate.
    Non-convergence is not an exception: the achieved error is reported.
    """
    def integrand(theta):
        return np.log(F.boundary_deriv_modulus(theta))

    if F.is_rotation:
        return LyapunovEstimate(0.0, "quadrature", 0.0)
    eps = max(tol, 1e-12) if F.atoms else 0.0
    angles = sorted(ang for ang, _ in F.atoms) or [0.0]
    total, err_total = 0.0, 0.0
    # Smooth arcs between consecutive exclusion windows (one full turn
    # without atoms).
    bounds = []
    for i, ang in enumerate(angles):
        nxt = angles[(i + 1) % len(angles)] + (TWO_PI if i + 1 == len(angles) else 0)
        bounds.append((ang + eps, nxt - eps))
    atol = tol * TWO_PI
    for a, b in bounds:
        if b <= a:
            raise PreconditionError("atom exclusion windows overlap; lower tol")
        est, err, rounds, panels = _integrate(integrand, (a, b), atol, 1e-13)
        log.debug("chi_quadrature on [%.17g, %.17g]: %d panels, "
                  "achieved err %.2e, requested %.2e, %d rounds",
                  a, b, panels, err, atol, rounds)
        total += est
        err_total += err
    # Bracket each excluded window [ang - eps, ang + eps]: on |u| <= eps
    # the singular term lies between 2w/u^2 and (pi^2/4) 2w/u^2, the rest
    # is bounded by its sup over the window, and
    # int_{-eps}^{eps} log(c/u^2) du = 2 eps log c + 4 eps (1 + log(1/eps)).
    for ang, w in F.atoms:
        rest = 0.0
        zeta = np.exp(1j * (ang + eps))
        for a in F.zeros:
            rest += (1.0 - abs(a) ** 2) / max(abs(zeta - a) - 2 * eps, 1e-6) ** 2
        for ang2, w2 in F.atoms:
            if ang2 != ang:
                gap = 2.0 * abs(math.sin((ang - ang2) / 2.0)) - 2 * eps
                rest += 2.0 * w2 / max(gap, 1e-6) ** 2
        c_lo = 2.0 * w
        c_hi = (math.pi ** 2 / 2.0) * w + rest * eps ** 2
        base = 4.0 * eps * (1.0 + math.log(1.0 / eps))
        lo = 2.0 * eps * math.log(c_lo) + base
        hi = 2.0 * eps * math.log(c_hi) + base
        total += 0.5 * (lo + hi)
        err_total += 0.5 * (hi - lo) + base * 1e-14
    if err_total > tol * TWO_PI:
        log.info("chi_quadrature achieved %.2e, requested %.2e",
                 err_total / TWO_PI, tol)
    return LyapunovEstimate(total / TWO_PI, "quadrature", err_total / TWO_PI)


def _series_div(num, den, nterms: int):
    """First nterms Taylor coefficients of num/den (lowest-first input)."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    t = np.zeros(nterms, dtype=complex)
    for k in range(nterms):
        acc = num[k] if k < len(num) else 0.0
        for j in range(max(0, k - len(den) + 1), k):
            acc -= t[j] * den[k - j]
        t[k] = acc / den[0]
    return t


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
    taylor = _series_div(N, npoly.polymul(Q, Q), m + 1)
    c_lead = taylor[m]
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
    advance together in complex coordinates renormalized to modulus 1 each
    step, so they cannot drift off the circle.  The error estimate is one
    standard error from the per-orbit means (inf for a single orbit).
    """
    if F.atoms or not F.centered or F.is_rotation or F.degree < 1:
        raise PreconditionError("Birkhoff average needs a centered "
                                "non-rotation finite Blaschke product")
    if n < 1:
        raise PreconditionError("need n >= 1")
    lanes = min(32, n)
    rng = np.random.default_rng(seed)
    starts = np.exp(1j * rng.uniform(0.0, TWO_PI, size=lanes - 1))
    z = np.concatenate(([_boundary_value(zeta0)], starts))
    steps = np.full(lanes, n // lanes)
    steps[: n % lanes] += 1
    sums = np.zeros(lanes)
    for k in range(steps[0]):
        sums += np.where(steps > k, np.log(F.boundary_deriv_modulus(z)), 0.0)
        w = F.eval(z)
        z = w / np.abs(w)
    value = float(np.sum(sums) / n)
    if lanes == 1:
        return LyapunovEstimate(value, "birkhoff", math.inf)
    stderr = float(np.std(sums / steps, ddof=1) / math.sqrt(lanes))
    return LyapunovEstimate(value, "birkhoff", stderr)


def chi(F: InnerModel, tol: float = 1e-10) -> float:
    """Best available chi: the Jensen oracle when applicable, else
    quadrature."""
    if not F.atoms and F.degree >= 2:
        return chi_jensen_oracle(F).value
    return chi_quadrature(F, tol).value
