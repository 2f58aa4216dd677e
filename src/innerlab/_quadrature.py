"""Adaptive Gauss-Legendre panel quadrature on arrays.

One routine serves every 1-D integral of the package (the Lyapunov
quadrature, the parabolic chi_ell and the radial distortion integrals).
Each panel carries a Gauss-Legendre 21-point estimate and, as its error,
the distance to the 10-point estimate, raised where a feature may hide
from both rules (see `_integrate`).  Panels are bisected under one global
error budget until every component of the (possibly vector-valued)
integral meets max(atol, rtol |estimate|), and all the panels of a round
are evaluated in one call of the integrand.  Every integral's log records
go to `innerlab.quadrature`.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy.polynomial import legendre

from .errors import PreconditionError

log = logging.getLogger("innerlab.quadrature")

# The cap is MAX_PANELS panels per piece; no panel gets narrower than
# 2^(1 - MAX_PANELS * pieces) of its piece.
MAX_PANELS = 1000

_X21, _W21 = legendre.leggauss(21)
_X10, _W10 = legendre.leggauss(10)
_NODES = np.concatenate((_X21, _X10))
# Rows over the 31 nodes: the 21-point rule, the 10-point rule, and the
# values at -1 and 1 of the degree-20 interpolant through the 21 nodes,
# whose Legendre coefficients are (k + 1/2) sum_j w_j P_k(x_j) f(x_j).
_WEIGHTS = np.zeros((4, 31))
_WEIGHTS[0, :21] = _W21
_WEIGHTS[1, 21:] = _W10
_WEIGHTS[2:, :21] = (legendre.legvander([-1.0, 1.0], 20) * (np.arange(21) + 0.5)) \
    @ (legendre.legvander(_X21, 20) * _W21[:, None]).T
# Share of a panel's width between one end and its nearest node.
_END_GAP = 0.5 * (1.0 - _X21[-1])


def _rule(f, lo, hi):
    """Per panel, a (panels, 4, components) array: the 21-point estimate,
    its distance to the 10-point one (inf where not finite) and the
    interpolant's values at the left and the right end; and whether f is
    scalar-valued."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float)
    s = _WEIGHTS @ y.reshape(len(lo), 31, -1)
    s[:, :2] *= half[:, None, None]
    err = np.abs(s[:, 0] - s[:, 1])
    s[:, 1] = np.where(np.isfinite(err), err, np.inf)
    return s, y.ndim == 1


def _require_tol(tol: float) -> None:
    """PreconditionError unless a caller's tolerance is positive and finite."""
    if not 0 < tol < math.inf:
        raise PreconditionError(f"tolerance must be positive and finite, got {tol!r}")


def _integrate(f, pieces, atol: float, rtol: float):
    """Sum of the integrals of f over the pieces, an ascending (n, 2) array
    of disjoint [a, b] (a piece may start where the one before ends):
    (estimate, achieved error, rounds, panels).

    f maps a 1-D array of nodes to an array of values, one per node, or to
    an (n, m) array for an m-component integral, whose estimate and error
    are then (m,) arrays.  The pieces share one loop: each round bisects
    every non-finite panel and, unless the finite panels already meet tol,
    the fewest finite panels, of any piece, that carry half of their summed
    error scaled by the tolerance of the components still open, and
    evaluates all the new panels in one call of f, so a non-finite panel
    neither holds up nor over-refines the other pieces.

    A panel's error is the largest of three terms: the distance between
    its two rules; half of |Q(parent) - Q(left) - Q(right)| from the
    bisection that made it, so that what the parent's nodes saw and the
    children's miss stays open; and, at each edge it shares with a panel
    of the same piece, the jump between the two panels' interpolants there
    times the width from its end to its outermost node, so that a step
    hiding between the nodes nearest an edge cannot pass as converged.  No
    jump between pieces is charged, so a caller must put every step of f on
    a piece's end: a step between an end and the node nearest it goes
    unseen (`_integrate(lambda x: (x > 0.001) * 1.0, [(0, 1)], 1e-9, 0)`
    returns 1.0 with error 0).  atol > 0.  At MAX_PANELS panels per piece,
    or once the width of the panels with a non-finite estimate has not
    fallen in a round, the loop stops, logs one INFO record naming the
    piece of the panel with the largest scaled error and returns the
    achieved error; nothing is raised.  Every round bisects each such
    panel, so their width falls while the panels are wider than the set
    where f is not finite (to 0 where a node hit a value at an isolated
    point) and stops falling once both children of each are non-finite
    too: f not finite on an interval stops the loop in a few rounds, not
    at the cap.  Each call logs one DEBUG record, args (first a, last
    b, panels, the largest achieved error, atol, rounds), with the caller
    as funcName.
    """
    pieces = np.asarray(pieces, dtype=float)
    lo, hi = pieces[:, 0], pieces[:, 1]
    piece, cap = np.arange(len(lo)), MAX_PANELS * len(lo)
    s, scalar = _rule(f, lo, hi)
    rounds, bad_width = 1, 0.0
    while True:
        # Panels are kept in order, each with the index of its piece.
        jump = np.abs(s[:-1, 3] - s[1:, 2])
        jump[piece[:-1] != piece[1:]] = 0.0
        gap = _END_GAP * (hi - lo)[:, None]
        err = s[:, 1].copy()
        err[:-1] = np.fmax(err[:-1], jump * gap[:-1])
        err[1:] = np.fmax(err[1:], jump * gap[1:])
        est, total = s[:, 0].sum(axis=0), err.sum(axis=0)
        tol = np.where(np.isfinite(est), np.maximum(atol, rtol * np.abs(est)),
                       atol)
        open_ = ~(total <= tol)
        room = cap - len(lo)
        bad = np.count_nonzero(np.isinf(s[:, 1]).any(axis=1))
        # Only the panels whose own estimate is not finite: the children of
        # such a panel inherit an error of inf for a round.
        last_width = bad_width
        bad_width = np.sum((hi - lo)[~np.isfinite(s[:, 0]).all(axis=1)])
        if not open_.any():
            break
        scaled = (err[:, open_] / tol[open_]).sum(axis=1)
        if room <= 0 or 0 < last_width <= bad_width:
            worst = np.argmax(total / tol)
            log.info("stopped at %d panels (panel cap %d), %d non-finite, on "
                     "piece [%.17g, %.17g]: achieved err %.2e, requested %.2e",
                     len(lo), cap, bad, *pieces[piece[np.argmax(scaled)]],
                     total[worst], tol[worst], stacklevel=2)
            break
        stuck = np.isinf(scaled)
        order = np.argsort(-scaled, kind="stable")
        cum = np.cumsum(np.where(stuck, 0.0, scaled)[order])
        k = int(np.searchsorted(cum, 0.5 * cum[-1])) + 1
        if stuck.any() and cum[-1] <= 1.0:
            k = 0   # the finite panels already meet tol
        k = min(max(k, np.count_nonzero(stuck)), room)
        split = np.sort(order[:k])
        mid = 0.5 * (lo[split] + hi[split])
        new, _ = _rule(f, np.concatenate((lo[split], mid)),
                       np.concatenate((mid, hi[split])))
        parent = 0.5 * np.abs(s[split, 0] - new[:k, 0] - new[k:, 0])
        new[:, 1] = np.fmax(new[:, 1], np.concatenate((parent, parent)))
        # The two children take their parent's place.
        counts = np.ones(len(lo), dtype=int)
        counts[split] = 2
        at = np.repeat(np.arange(len(lo)), counts)
        left = split + np.arange(k)
        lo, hi, s, piece = lo[at], hi[at], s[at], piece[at]
        hi[left] = lo[left + 1] = mid
        s[left], s[left + 1] = new[:k], new[k:]
        rounds += 1
    log.debug("integral on [%.17g, %.17g]: %d panels, achieved err %.2e, "
              "requested %.2e, %d rounds", pieces[0, 0], pieces[-1, 1], len(lo),
              np.max(total), atol, rounds, stacklevel=2)
    if scalar:
        return float(est[0]), float(total[0]), rounds, len(lo)
    return est, total, rounds, len(lo)
