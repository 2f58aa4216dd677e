"""Hyperbolic geometry of the unit disk (curvature -1).

Distances, including the radial profile d(0, w) in which the counting
theorems are stated, and numerical geodesic curvature of sampled curves.
Points are plain complex numbers or complex arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError

# Zeros, Frostman parameters and other interior data this close to the
# circle are rejected; boundary quantities have their own operations.
BOUNDARY_TOL = 1e-14


def disk_distance(z, w):
    """d(z, w) = 2 artanh |(z - w)/(1 - conj(w) z)| on the unit disk."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = np.abs((z - w) / (1.0 - np.conj(w) * z))
    out = 2.0 * np.arctanh(np.clip(q, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def origin_distance(r):
    """d(0, z) for |z| = r; the radial profile log((1+r)/(1-r)).

    Returns +inf at r = 1.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log1p(r) - np.log1p(-r)
    return float(out) if out.ndim == 0 else out


def _window_derivatives(points, params, index):
    """First and second parameter derivatives of a 5-point window at its
    center, via exact degree-4 interpolation on the (shifted) parameters."""
    lo, hi = index - 2, index + 3
    w = np.asarray(points[lo:hi], dtype=complex)
    t = np.asarray(params[lo:hi], dtype=float) - params[index]
    if len(w) != 5:
        raise PreconditionError("index must have two neighbors on each side")
    if np.min(np.abs(np.diff(t))) < 1e-300:
        raise NumericalError("degenerate stencil: repeated parameter values")
    # Vandermonde solve: exact quartic through the 5 samples.
    V = np.vander(t, 5, increasing=True)
    try:
        coef = np.linalg.solve(V, w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("degenerate stencil") from exc
    return coef[1], 2.0 * coef[2]


def geodesic_curvature(points, index, params=None) -> float:
    """Hyperbolic geodesic curvature of a sampled disk curve at one sample.

    The sample at `index` is Moebius-normalized to the origin, where the
    hyperbolic curvature is half the Euclidean curvature; that is estimated
    from a 5-point central stencil.  `params` defaults to the sample index.
    Needs locally C^2-like data: spacing small enough for the stencil.
    """
    points = np.asarray(points, dtype=complex)
    n = len(points)
    if n < 5:
        raise PreconditionError("need at least 5 samples")
    if not 2 <= index <= n - 3:
        raise PreconditionError("index must be strictly interior (2 samples each side)")
    if params is None:
        params = np.arange(n, dtype=float)
    p = points[index]
    if abs(p) >= 1:
        raise DomainError("curve leaves the unit disk")
    normalized = (points - p) / (1.0 - np.conj(p) * points)
    d1, d2 = _window_derivatives(normalized, params, index)
    speed = abs(d1)
    if speed < 1e-13:
        raise NumericalError("degenerate stencil: vanishing tangent")
    kappa_euc = abs((np.conj(d1) * d2).imag) / speed ** 3
    return 0.5 * kappa_euc
