"""Exact preimages of finite Blaschke products and preimage trees.

Solves F(w) = z through the model's cached rational form F = P/Q by the
preimage solve shared with the strip (`_roots._preimage_roots`: the
stable quadratic formula at degree 2, Aberth-Ehrlich from one fixed ring
of starts at degree >= 3, one Newton step on F(w) - z, and a
product-form rescue of the rows that fail the 1e-12 residual check),
clips rounding overshoot back into the disk, and enumerates the tree of
repeated preimages inside hyperbolic balls with Schwarz-lemma pruning.
Enumeration is breadth-first, batched per generation, and deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._roots import _preimage_roots
from .errors import BudgetError, PreconditionError
from .hypgeo import origin_distance
from .innerfn import InnerModel, _require_blaschke

log = logging.getLogger("innerlab.preimage")

DEFAULT_NODE_BUDGET = 5 * 10 ** 7
_BALL_RECORD = "enumerate_ball: %d generations, %d explored, %d retained"


def _sort_roots(roots):
    """Deterministic (argument, modulus) order, rowwise."""
    roots = np.atleast_2d(roots)
    order = np.lexsort((np.abs(roots).round(12), np.angle(roots).round(12)),
                       axis=1)
    return roots[np.arange(len(roots))[:, None], order]


def preimages_of_batch(F: InnerModel, zs):
    """The d preimages of each point of `zs` (with multiplicity), as an
    (m, d) array sorted rowwise by (argument, modulus)."""
    _require_blaschke(F, centered=False)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    roots = _preimage_roots(F, zs)
    # Preimages of interior points are interior; clip rounding overshoot.
    mods = np.abs(roots)
    fix = (mods >= 1.0) & (np.abs(zs[:, None]) < 1.0)
    roots[fix] *= (1.0 - 1e-16) / mods[fix]
    return _sort_roots(roots)


@dataclass
class PreimageTree:
    """Repeated preimages of `base` under `model` with hyperbolic radius
    <= cutoff, grouped by generation.

    `points[g]` holds generation g and `parents[g]` the index of each
    node's parent within generation g-1.  `pruned_from` is the first
    generation at which any child was discarded by the radius cutoff, or
    None.
    """

    model: InnerModel
    base: complex
    cutoff: float
    points: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    pruned_from: int | None = None
    explored: int = 0

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

    def heights(self, generation: int) -> np.ndarray:
        return np.log(1.0 / np.abs(self.points[generation]))

    def max_residual(self) -> float:
        """max |F(w) - parent(w)| over all non-root retained nodes."""
        worst = 0.0
        for g in range(1, self.generations):
            w = self.points[g]
            target = self.points[g - 1][self.parents[g]]
            worst = max(worst, float(np.max(np.abs(self.model.eval(w) - target))))
        return worst


def enumerate_ball(F: InnerModel, z, R: float, node_budget=DEFAULT_NODE_BUDGET,
                   max_generation=None) -> PreimageTree:
    """Breadth-first tree of repeated preimages of z with d(0, w) <= R.

    A node is retained iff its hyperbolic radius is <= R; only retained
    nodes are expanded, which is sound pruning because d(0, w) >= d(0, F(w))
    for centered F.  Preimages are counted with multiplicity, as
    `preimages_of_batch` returns them: the double pullback of a critical
    value is two nodes, each with its own subtree, as the height identity
    and the counting asymptotics count it.  Nodes of different generations
    never coincide: a shared point would make z periodic, while Schwarz's
    lemma gives d(0, F(w)) < d(0, w) for w != 0 under a centered
    non-rotation F.  The base point itself is generation 0.  Exceeding
    `node_budget` explored nodes raises BudgetError carrying the partial
    tree.
    """
    _require_blaschke(F, reject_rotation=True)
    z = complex(z)
    if z == 0:
        raise PreconditionError("base point must be nonzero")
    if not R > 0:
        raise PreconditionError("cutoff radius must be positive")

    tree = PreimageTree(model=F, base=z, cutoff=float(R))
    base_radius = origin_distance(abs(z))
    tree.explored = 1
    if base_radius > R:
        tree.pruned_from = 0
    else:
        tree.points.append(np.array([z], dtype=complex))
        tree.parents.append(np.array([-1], dtype=np.int64))

    d = F.degree
    gen = 0
    while gen < tree.generations:
        if max_generation is not None and gen >= max_generation:
            break
        parents = tree.points[gen]
        m = len(parents)
        tree.explored += m * d
        if tree.explored > node_budget:
            raise BudgetError(
                f"node budget {node_budget} exceeded at generation {gen + 1}",
                partial=tree)
        roots = preimages_of_batch(F, parents)
        radii = origin_distance(np.abs(roots))
        inside = radii <= R
        if tree.pruned_from is None and not inside.all():
            tree.pruned_from = gen + 1
        if not inside.any():
            break
        tree.points.append(roots[inside])
        tree.parents.append(np.flatnonzero(inside) // d)
        gen += 1
    log.debug(_BALL_RECORD, tree.generations, tree.explored, tree.size())
    return tree


def verify_sum_of_heights(tree: PreimageTree, generation: int) -> float:
    """|sum of heights over a fully expanded generation - log(1/|z|)|.

    Requires that no ancestor of the generation was pruned (build the tree
    with R = inf and a max_generation cap).
    """
    if generation < 0 or generation >= tree.generations:
        raise PreconditionError(f"generation {generation} not present in tree")
    if tree.pruned_from is not None and tree.pruned_from <= generation:
        raise PreconditionError(
            f"generation {generation} was pruned (from {tree.pruned_from}); "
            "re-enumerate with an infinite radius cutoff")
    total = float(np.sum(tree.heights(generation)))
    return abs(total - float(np.log(1.0 / abs(tree.base))))
