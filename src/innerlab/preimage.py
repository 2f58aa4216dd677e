"""Exact preimages of finite Blaschke products and preimage trees.

Solves F(w) = z through the model's cached rational form F = P/Q by the
preimage solve shared with the strip (`_roots._preimage_roots`: the
stable quadratic formula at degree 2, Aberth-Ehrlich from one fixed ring
of starts at degree >= 3, one Newton step on F(w) - z, and a
product-form rescue of the rows that fail the 1e-12 residual check),
clips rounding overshoot back into the disk, and enumerates the tree of
repeated preimages inside hyperbolic balls with Schwarz-lemma pruning.
Enumeration is breadth-first, batched per generation, and deterministic.

The pruning is Schwarz-Pick's, factor by factor: |b_a(w)| <= (|w| + |a|)/
(1 + |a||w|), and |w| for a zero at 0, so |F(w)| <= phi(|w|) with phi the
increasing product of these bounds.  A child w in the ball of radius R has
|w| <= t = tanh(R/2), hence its parent u has |u| <= phi(t) up to the
solve's residual: a node beyond R* = d(0, phi(t) + `_EXPAND_MARGIN`) has no
child in the ball and is kept without a solve.  The half-plane strip has
no such radius: Im F(w)/Im w = beta + sum c_k/|x_k - w|^2 has no positive
lower bound as |w| -> inf, and its far-field pruning plays the part.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._roots import RESIDUAL_TOL, _preimage_roots
from .errors import BudgetError, PreconditionError
from .hypgeo import origin_distance
from .innerfn import InnerModel, _require_blaschke

log = logging.getLogger("innerlab.preimage")

DEFAULT_NODE_BUDGET = 5 * 10 ** 7
_BALL_RECORD = ("enumerate_ball: %d generations, %d explored, %d retained, "
                "expand radius %.17g, %d retained unsolved")
# A solved child w of u has |F(w) - u| <= RESIDUAL_TOL as computed; twice
# that also covers the rounding of F(w), |u| and phi(t), which is a few ulps.
# The bound is attained (on z^n, and on z b_a along w = -t a/|a|), so a
# margin of 0 would drop children that land on R up to rounding.
_EXPAND_MARGIN = 2.0 * RESIDUAL_TOL


def _schwarz_pick_gap(F: InnerModel, R):
    """1 - phi(tanh(R/2)), elementwise in the hyperbolic radius R, with
    phi(r) = prod over F's zeros a of (r + |a|)/(1 + |a| r), the bound on
    |F(w)| at |w| = r.  Each factor's gap (1 - t)(1 - |a|)/(1 + |a| t) is
    taken from 1 - t = 2 e^-R/(1 + e^-R) and combined through log1p and
    expm1, so nothing cancels near the circle."""
    q = np.exp(-np.asarray(R, dtype=float))[..., None]
    t = (1.0 - q) / (1.0 + q)
    a = np.abs(np.asarray(F.zeros))
    with np.errstate(divide="ignore"):      # log1p(-1) = -inf at t = 0
        log_phi = np.sum(np.log1p(-2.0 * q / (1.0 + q) * (1.0 - a) / (1.0 + a * t)),
                         axis=-1)
    return -np.expm1(log_phi)


def _expand_radius(F: InnerModel, R: float) -> float:
    """R* = d(0, phi(tanh(R/2)) + _EXPAND_MARGIN): a node u with
    d(0, u) > R* has every preimage beyond R (inf if the margin reaches
    the circle)."""
    gap = float(_schwarz_pick_gap(F, R)) - _EXPAND_MARGIN
    return math.log((2.0 - gap) / gap) if gap > 0 else math.inf


def preimages_of_batch(F: InnerModel, zs):
    """The d preimages of each point of `zs` (with multiplicity), as an
    (m, d) array, each row in the order the solve produced it: fixed by F
    and that row's z alone, so deterministic but unsorted."""
    _require_blaschke(F, centered=False)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    roots = _preimage_roots(F, zs)
    # Preimages of interior points are interior; clip rounding overshoot.
    mods = np.abs(roots)
    fix = (mods >= 1.0) & (np.abs(zs[:, None]) < 1.0)
    roots[fix] *= (1.0 - 1e-16) / mods[fix]
    return roots


@dataclass
class PreimageTree:
    """Repeated preimages of `base` under `model` with hyperbolic radius
    <= cutoff, grouped by generation.

    `points[g]` holds generation g and `parents[g]` the index of each
    node's parent within generation g-1.  `explored` is 1 plus the
    children of the solved nodes, those not beyond `expand_radius` (R*).
    """

    model: InnerModel
    base: complex
    cutoff: float
    points: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    explored: int = 0
    expand_radius: float = math.inf

    @property
    def generations(self) -> int:
        return len(self.points)

    def size(self) -> int:
        return sum(len(p) for p in self.points)

    def radii(self) -> np.ndarray:
        """Sorted hyperbolic radii of all retained nodes."""
        if self.size() == 0:
            return np.empty(0)
        mods = np.concatenate([np.abs(p) for p in self.points])
        return np.sort(origin_distance(mods))

    def max_residual(self) -> float:
        """max |F(w) - parent(w)| over all non-root retained nodes."""
        worst = 0.0
        for g in range(1, self.generations):
            w = self.points[g]
            target = self.points[g - 1][self.parents[g]]
            worst = max(worst, float(np.max(np.abs(self.model.eval(w) - target))))
        return worst


def enumerate_ball(F: InnerModel, z, R: float,
                   node_budget=DEFAULT_NODE_BUDGET) -> PreimageTree:
    """Breadth-first tree of repeated preimages of z with d(0, w) <= R.

    A node is retained iff its hyperbolic radius is <= R, and solved for
    its children iff it is also not beyond R* = `tree.expand_radius` < R:
    by Schwarz-Pick (see the module docstring) every preimage of a node
    beyond R* lies beyond R, with `_EXPAND_MARGIN` to spare for the
    solve's residual, so the tree is the one that solving every retained
    node would give, bit for bit.  Preimages are counted with
    multiplicity, as `preimages_of_batch` returns them: the double
    pullback of a critical value is two nodes, each with its own subtree,
    as the height identity and the counting asymptotics count it.
    Nodes of different generations never coincide: a shared point would
    make z periodic, while Schwarz's lemma gives d(0, F(w)) < d(0, w) for
    w != 0 under a centered non-rotation F.  The base point itself is
    generation 0.  Exceeding `node_budget` explored nodes (children of
    solved nodes) raises BudgetError carrying the partial tree.
    """
    _require_blaschke(F, reject_rotation=True)
    z = complex(z)
    if z == 0 or abs(z) >= 1:       # a NaN passes, to fail in the solve
        raise PreconditionError("base point must lie in 0 < |z| < 1")
    if not 0 < R < math.inf:
        raise PreconditionError("cutoff radius must be positive and finite")

    tree = PreimageTree(model=F, base=z, cutoff=float(R), explored=1,
                        expand_radius=_expand_radius(F, R))
    radii = np.array([origin_distance(abs(z))])
    if not radii[0] > R:
        tree.points.append(np.array([z], dtype=complex))
        tree.parents.append(np.array([-1], dtype=np.int64))

    d = F.degree
    unsolved = 0
    gen = 0
    while gen < tree.generations:
        # Not `radii <= R*`: a NaN base point must reach the solve and fail.
        solve = np.flatnonzero(~(radii > tree.expand_radius))
        unsolved += len(radii) - len(solve)
        if not len(solve):
            break
        tree.explored += len(solve) * d
        if tree.explored > node_budget:
            raise BudgetError(
                f"node budget {node_budget} exceeded at generation {gen + 1}",
                partial=tree)
        roots = preimages_of_batch(F, tree.points[gen][solve])
        radii = origin_distance(np.abs(roots))
        inside = radii <= R
        if not inside.any():
            break
        tree.points.append(roots[inside])
        tree.parents.append(solve[np.flatnonzero(inside) // d])
        radii = radii[inside]
        gen += 1
    log.debug(_BALL_RECORD, tree.generations, tree.explored, tree.size(),
              tree.expand_radius, unsolved)
    return tree

