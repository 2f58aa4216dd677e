"""Distortion calculus for holomorphic self-maps.

The comparison quotient p of the pushforward of the radial unit field
of the disk against the field at the image point, and the derived
quantities: Moebius distortion mu = 1 - |p|, linear distortion
delta = |1 - p|, vertical inefficiency eta = Re(1 - p), and vertical
inclination alpha = |arg p|.  Also radial distortion integrals,
cumulative distortion along backward orbits, and the angular-derivative
criterion scan.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quadrature import _integrate, _require_tol
from .errors import DomainError, PreconditionError
from .innerfn import FrostmanShift, InnerModel, _boundary_value
from .lyapunov import _critical_points
from .preimage import preimages_of_batch

log = logging.getLogger("innerlab.distortion")

PUNCTURE = 1e-8
QUANTITIES = ("mu", "delta", "eta", "alpha")


@dataclass(frozen=True)
class DistortionSample:
    """Distortion quantities of a map at one point.

    mu = 1 - |p|, delta = |1 - p|, eta = Re(1 - p), alpha = |arg p|,
    kept consistent with p to 1e-14 by construction.
    """

    z: complex
    p: complex
    mu: float
    delta: float
    eta: float
    alpha: float

    @staticmethod
    def from_p(z, p: complex) -> "DistortionSample":
        p, mu, delta, eta, alpha = _quantities(p)
        return DistortionSample(z=complex(z), p=complex(p), mu=float(mu),
                                delta=float(delta), eta=float(eta),
                                alpha=float(alpha))


def _quantities(p):
    """(p, mu, delta, eta, alpha) for a scalar or an array of comparison
    quotients, in the order of QUANTITIES after p.  |p| up to 1 + 1e-12 is
    rounding overshoot and is projected back onto the circle (the map is an
    isometry there); beyond that Schwarz's lemma is violated."""
    p = np.asarray(p, dtype=complex)
    # hypot agrees with abs() of a Python complex to the last bit.
    mod = np.hypot(p.real, p.imag)
    if np.any(mod > 1.0 + 1e-12):
        raise DomainError(f"Schwarz violation: |p| = {np.max(mod)}")
    p = p / np.maximum(mod, 1.0)
    return (p, np.maximum(0.0, 1.0 - np.hypot(p.real, p.imag)),
            np.hypot(1.0 - p.real, p.imag), 1.0 - p.real, np.abs(np.angle(p)))


def p_disk(F, z):
    """The radial comparison quotient in the disk, vectorized.

    p(z) = F'(z) (1-|z|^2)/(1-|F(z)|^2) * (z/|z|) * (|F(z)|/F(z)); undefined
    where z = 0 or F(z) = 0.  F must provide a cancellation-free
    `gap_ratio` for (1-|z|^2)/(1-|F(z)|^2), as inner models and Frostman
    shifts do.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(F.eval(z), dtype=complex)
    if np.any(np.abs(z) == 0) or np.any(np.abs(w) == 0):
        raise PreconditionError("radial direction undefined at z = 0 or F(z) = 0")
    return np.asarray(F.deriv(z), dtype=complex) * F.gap_ratio(z) \
        * (z / np.abs(z)) * (np.abs(w) / w)


def distortion_at_disk(F, z) -> DistortionSample:
    """Distortion sample of a disk self-map at z (z, F(z) nonzero).

    F must provide `gap_ratio` (see `p_disk`), which keeps the sample
    accurate up to the circle."""
    z = complex(z)
    return DistortionSample.from_p(z, p_disk(F, z))


def radial_distortion_integral(F, zeta, quantity, r_max: float,
                               tol: float = 1e-9):
    """int_0^{r_max} quantity(r zeta) d rho along the radius, with the
    hyperbolic line element d rho = 2 dr/(1 - r^2).

    `quantity` is one name of QUANTITIES, which gives a float, or a tuple
    of names, which gives an array of their integrals in that order.

    The ray is broken only where p is not smooth (`_breaks`): at each zero
    of F on it, where p is bounded on both sides and steps as |F|/F flips
    sign, and at each critical point of F on it, where mu has a kink and
    alpha jumps by pi.  The pieces tile [0, r_max] and are integrated by
    one vector-valued `_integrate` call (one DEBUG record on
    `innerlab.quadrature`), so each node's comparison quotient is computed
    once and the ray's total meets `tol` in every component.  No
    Gauss-Legendre node reaches a piece's end, so p is never evaluated at
    0 or at a zero.  Monotone nondecreasing in r_max for nonnegative
    quantities.
    """
    if not 0 < r_max < 1:
        raise PreconditionError("need 0 < r_max < 1")
    _require_tol(tol)
    names = (quantity,) if isinstance(quantity, str) else tuple(quantity)
    if not names or any(q not in QUANTITIES for q in names):
        raise PreconditionError(f"unknown quantity {quantity!r}")
    columns = [1 + QUANTITIES.index(q) for q in names]
    zeta = _boundary_value(zeta)

    def integrand(r):
        qs = _quantities(p_disk(F, r * zeta))
        return np.stack([qs[c] for c in columns], axis=-1) * 2.0 \
            / (1.0 - r * r)[:, None]

    ends = np.unique([0.0, *_breaks(F, zeta, r_max), r_max])
    total = _integrate(integrand, np.column_stack((ends[:-1], ends[1:])),
                       tol, 1e-11)[0]
    return float(total[0]) if isinstance(quantity, str) else total


def _breaks(F, zeta, r_max):
    """Sorted points in (0, r_max) of the ray through zeta where p = F' gap
    (z/|z|) (|F|/F) is not smooth.  They are r = Re(a conj(zeta)) for each
    zero a of F with |a/|a| - zeta| < 1e-9, where |F|/F flips sign, and the
    ends r -+ b of a bracket around each critical point c of F with
    |Im(c conj(zeta))| <= b, r = Re(c conj(zeta)), and b the first-order
    bound on c of `_critical_points`: p vanishes only where F' does, so
    these are the steps of alpha and the kinks of mu.  A bracket, not c
    itself, so that an inexact c cannot put the step between a piece's end
    and its nearest node.  Only InnerModels and shifts F_a of atom-free
    ones have breaks: F_a vanishes at F's preimages of a and has F's
    critical points, as a Moebius map has none.  Only atom-free models of
    degree >= 2 have their critical points solved; a solve that did not
    come to rest gives no critical breaks: those only spare the quadrature
    rounds, whose own error control keeps the result right.
    """
    if isinstance(F, FrostmanShift) and not F.base.atoms:
        F, zeros = F.base, preimages_of_batch(F.base, [F.a])[0]
    elif isinstance(F, InnerModel):
        zeros = F.zeros
    else:
        return []
    points = [(a * zeta.conjugate()).real for a in zeros
              if a != 0 and abs(a / abs(a) - zeta) < 1e-9]
    if not F.atoms and F.degree >= 2:
        _, crit, slack, dp, rested = _critical_points(F)
        if rested:
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = slack / np.abs(dp)
            t = crit * zeta.conjugate()
            on = np.abs(t.imag) <= bound
            points.extend(np.concatenate((t.real[on] - bound[on],
                                          t.real[on] + bound[on])))
    return sorted(x for x in points if 0 < x < r_max)


def cumulative_orbit_distortion(F: InnerModel, coords, N: int) -> float:
    """Partial sum sum_{n=1}^N delta_F(z_{-n}) along the backward orbit
    `coords` = (z_0, z_{-1}, ...).

    One `p_disk` call on an (N, 2) array: each coordinate twice, or, where
    the radial direction is undefined (logged), its two-sided limit from
    z (1 -+ 1e-8), with z = 0 taken as 1e-8.
    """
    if N < 0:
        raise PreconditionError("need N >= 0")
    if len(coords) < N + 1:
        raise PreconditionError(f"orbit too short: need {N + 1} coordinates")
    z = np.asarray(coords[1:N + 1], dtype=complex)
    undefined = (z == 0) | (F.eval(z) == 0)
    if undefined.any():
        log.info("undefined direction at orbit indices %s; perturbing",
                 -1 - np.flatnonzero(undefined))
    side = np.where(undefined[:, None], [1.0 - PUNCTURE, 1.0 + PUNCTURE], 1.0)
    delta = _quantities(p_disk(F, np.where(z == 0, PUNCTURE, z)[:, None] * side))[2]
    return float(0.5 * np.sum(delta))


def subadditivity_gap(F, G, a) -> float:
    """delta_{F o G}(a) - delta_F(G(a)) - delta_G(a); <= 0 up to rounding
    (the composition law in the form its proof establishes)."""
    b = complex(G.eval(a))
    pg = complex(p_disk(G, a))
    pf = complex(p_disk(F, b))
    return abs(1.0 - pf * pg) - abs(1.0 - pf) - abs(1.0 - pg)


ScanRow = namedtuple("ScanRow", "model_id r_max integral_mu integral_eta "
                     "integral_delta integral_alpha log_angular_derivative")


def angular_derivative_criterion_scan(family, zeta, r_grid,
                                      tol: float = 1e-9) -> list:
    """For each model of a truncation family, the four radial distortion
    integrals at each r_max (one vector-valued integration per model and
    r_max) together with log of the angular derivative.

    Supports the angular-derivative dichotomy: the mu-integral stabilizes
    in r_max exactly when the angular derivative stays finite along the
    family.
    """
    zeta = _boundary_value(zeta)
    rows = []
    for k, F in enumerate(family):
        ad = F.boundary_deriv_modulus(zeta)
        for r_max in r_grid:
            if F.is_rotation:
                rows.append(ScanRow(f"model{k}", float(r_max),
                                    0.0, 0.0, 0.0, 0.0, math.log(ad)))
                continue
            mu, eta, delta, alpha = radial_distortion_integral(
                F, zeta, ("mu", "eta", "delta", "alpha"), r_max, tol)
            rows.append(ScanRow(f"model{k}", float(r_max), float(mu),
                                float(eta), float(delta), float(alpha),
                                math.log(ad) if np.isfinite(ad) else math.inf))
    return rows
