"""Hyperbolic geometry of the unit disk (curvature -1).

Distances, including the radial profile d(0, w) in which the counting
theorems are stated.  Points are plain complex numbers or complex arrays.
"""

from __future__ import annotations

import numpy as np

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
