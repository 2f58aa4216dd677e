"""Batched polynomial root finding, and the one preimage solve of the
disk and the strip (`_preimage_roots`).

Roots of many polynomials of the same degree at once; coefficients are
lowest-degree first.  Degrees 1 and 2 are solved in closed form (the
stable quadratic formula at degree 2), degree >= 3 by Aberth-Ehrlich
simultaneous iteration, vectorized across the rows.

Aberth iterates the rows in blocks of at most BLOCK_ROWS, one block
after the other, so the memory of a call stays a few MB however many rows
it has; a row's iterates never depend on the other rows, so the blocks
change no digit.  Each iteration touches only the working set of its
block: contiguous (degree, rows) copies of the iterates, the monic
coefficients and the residual scales of the rows still moving, with
their row indices.  On an iteration where some rows finish, those rows
are written back to the (m, d) result once and the working set shrinks
to the rest.  p and p' come from one Horner pass, and the Aberth sum
over the other roots is d - 1 broadcasts of the rotated iterates.  A row
stops when its residual is small or no root moves by more than 1e-15
relative to max(1, |w|); rows still moving after MAX_ITER iterations
are written back with their last iterates.

Deterministic: fixed starting configuration (a symmetry-breaking ring,
or the caller's `start`), fixed iteration policy, no randomness.  Each
call logs one DEBUG record with its rows, degree, iterations run (the
most of any block) and rows left moving (0 and 0 in closed form).

`_preimage_roots` takes one Newton step on F(w) - z from each root, F and
F' from one `_eval_deriv` call, and checks the residual at the returned
roots, row by row only when the largest fails.  Rows that fail go to one
rescue, `_aberth_polish` on p = D (F - z) in product form, never on the
expanded N - z D, whose coefficients can lose the roots' digits.  Each
solve logs one DEBUG record with its rows, degree, rows rescued, worst
residual over its scale and largest first Newton step relative to
max(1, |w|).  `_aberth_polish` is the one Aberth loop on a product form,
p/p' from its caller; its other caller is `lyapunov.chi_jensen_oracle`.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DomainError, NumericalError

log = logging.getLogger("innerlab.roots")

RESIDUAL_TOL = 1e-12
ABERTH_TOL = 5e-14
MAX_ITER = 60
BLOCK_ROWS = 4096
_RECORD = "aberth_batch: %d rows, degree %d, %d iterations, %d rows left moving"
_SOLVE_RECORD = ("preimage solve: %d rows, degree %d, %d rows rescued, "
                 "residual %.3e of its scale, largest first Newton step %.3e")


def _default_start(m: int, d: int) -> np.ndarray:
    """A fixed, symmetry-breaking ring of starting points."""
    k = np.arange(d)
    ring = 0.85 * np.exp(2j * np.pi * (k + 0.354) / d + 0.41j)
    return np.broadcast_to(ring, (m, d)).copy()


def _quadratic_roots(monic):
    """Both roots of each monic row w^2 + b w + c, in closed form.

    q = -(b + s)/2 with s = sqrt(b^2 - 4c) signed so that b and s do not
    cancel, and the second root c/q from Vieta.  q = 0 only where
    b = c = 0, and there both roots are 0.
    """
    c, b = monic[:, 0], monic[:, 1]
    s = np.sqrt(b * b - 4.0 * c)
    np.negative(s, out=s, where=(b.conj() * s).real < 0.0)
    roots = np.empty((len(monic), 2), dtype=complex)
    q = np.multiply(-0.5, b + s, out=roots[:, 0])
    np.divide(c, np.where(q == 0, 1.0, q), out=roots[:, 1])
    return roots


def aberth_batch(coeffs, start=None):
    """All roots of each row of `coeffs` (lowest-degree first).

    Returns an (m, d) complex array, d = degree.  `start`, if given, is
    the (m, d) array of Aberth starting points (degree >= 3 only; degrees
    1 and 2 are solved in closed form).  Rows still moving after MAX_ITER
    iterations come back with their last iterates; the caller's residual
    check and rescue take them up.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    m, n1 = coeffs.shape
    d = n1 - 1
    if d < 1:
        raise NumericalError("cannot root a constant polynomial")
    lead = coeffs[:, -1]
    if (np.abs(lead) < 1e-300).any():
        raise NumericalError("vanishing leading coefficient in batch")
    monic = coeffs / lead[:, None]

    if d <= 2:
        log.debug(_RECORD, m, d, 0, 0)
        if d == 1:
            return (-monic[:, :1]).copy()
        return _quadratic_roots(monic)

    w = _default_start(m, d) if start is None else np.array(start, dtype=complex)
    iters, moving = 0, 0
    for lo in range(0, m, BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        block_iters, left = _aberth_block(monic[block], w[block])
        iters, moving = max(iters, block_iters), moving + left
    log.debug(_RECORD, m, d, iters, moving)
    return w


def _aberth_step(newton, wa):
    """Takes the Aberth step at the (d, n) iterates `wa` (one column per
    row, in place) from their Newton steps p/p': newton / (1 - newton
    sum_{j != i} 1/(w_i - w_j)), the Newton step where that is not finite,
    and 0.1 where neither is (at d = 1 the sum is 1/0, so the step is
    Newton's).  Returns each column's largest step relative to max(1, |w|)."""
    d = len(wa)
    # sum_{j != i} 1 / (w_i - w_j), with w_j = w_{i+k mod d}.
    ww = np.concatenate((wa, wa))
    s = 1.0 / (wa - ww[1:d + 1])
    for k in range(2, d):
        s += 1.0 / (wa - ww[k:k + d])
    step = newton / (1.0 - newton * s)
    if not np.isfinite(step).all():
        bad = ~np.isfinite(step)
        step[bad] = newton[bad]
        step[~np.isfinite(step)] = 0.1
    wa -= step
    return np.max(np.abs(step) / np.maximum(np.abs(wa), 1.0), axis=0)


def _aberth_block(monic, w):
    """Aberth iteration on the rows of `monic`, from and into `w` (an
    (m, d) view, updated in place; rows still moving after MAX_ITER keep
    their last iterates).  Returns the iterations run and those rows' count."""
    d = monic.shape[1] - 1
    # The working set, one column per row still moving.
    rows = np.arange(len(w))
    c = monic.T.copy()
    wa = w.T.copy()
    scale = np.maximum(np.max(np.abs(c), axis=0), 1.0)
    iters = 0
    with np.errstate(all="ignore"):
        while iters < MAX_ITER and len(rows):
            iters += 1
            dp = c[d]
            p = dp * wa + c[d - 1]
            for k in range(d - 2, -1, -1):
                dp = dp * wa + p
                p = p * wa + c[k]
            moved = _aberth_step(p / dp, wa)
            res = np.max(np.abs(p), axis=0) / scale
            done = (res < ABERTH_TOL) | (moved < 1e-15)
            if done.any():
                w[rows[done]] = wa[:, done].T
                keep = ~done
                rows, c, wa, scale = rows[keep], c[:, keep], wa[:, keep], scale[keep]
    w[rows] = wa.T
    return iters, len(rows)


def _aberth_polish(newton, w, max_iter=MAX_ITER):
    """Aberth steps from the Newton steps p/p' = `newton(w)` on the (d, n)
    iterates `w` (in place) until no root moves by more than 1e-15 relative
    to max(1, |w|), or for max_iter steps; whether the roots came to rest."""
    for _ in range(max_iter):
        if np.max(_aberth_step(newton(w), w)) < 1e-15:
            return True
    return False


def _rescue(F, w, z):
    """`_aberth_polish` on p = D (F - z) in product form, with p/p' from
    `F._preimage_newton`, from the (n, d) roots `w` of the n points `z`."""
    wa = w.T.copy()
    _aberth_polish(lambda wa: F._preimage_newton(wa, z), wa)
    return wa.T


def _newton_sweep(F, w, z):
    """One Newton step on F(w) - z from the roots `w`, not taken where it is
    not finite or of modulus 0.1 max(1, |w|) or more (near a multiple
    root).  Returns the new roots, their residuals and the steps taken."""
    step, fprime = F._eval_deriv(w)
    step -= z
    step /= fprime
    step[~(np.abs(step) < 0.1 * np.maximum(np.abs(w), 1.0))] = 0.0  # also NaN
    w = w - step
    return w, np.abs(F.eval(w) - z), step


def _numerators(F, zz):
    """The rows N - z D of F = N/D at the column zz, built in a call of
    their own so that they are freed before the Newton sweep."""
    N, D = F.rational_coeffs
    coeffs = np.empty((len(zz), len(N)), dtype=complex)
    coeffs[:] = N
    coeffs[:, :len(D)] -= zz * D
    return coeffs


def _preimage_roots(F, zs, start=None):
    """The roots w of F(w) = z for each z of the 1-D array `zs`, one row
    per z, each given one Newton step on F(w) - z and checked to
    |F(w) - z| <= RESIDUAL_TOL * max(1, max |z|).

    `F` has `eval`, `_eval_deriv` (F and F'), `_preimage_newton` and the
    rational form `rational_coeffs` = (N, D), lowest-degree first.  Rows
    that fail the check (rows Aberth left moving, rows whose N - z D lost
    the roots' digits) go to `_rescue` and are kept from it where their
    worst residual went down.  `start` is passed on to `aberth_batch`.
    If the check still fails, a non-finite z raises DomainError and a
    finite one NumericalError.
    """
    with np.errstate(all="ignore"):     # non-finite steps are caught below
        zz = zs[:, None]
        scale = max(1.0, float(np.abs(zs).max()))
        roots, resid, step = _newton_sweep(
            F, aberth_batch(_numerators(F, zz), start), zz)
        # Row maxima (slow along the short root axis) only when the largest
        # residual fails; a NaN fails both tests.
        again = np.flatnonzero(~(np.max(resid, axis=1) <= RESIDUAL_TOL * scale)) \
            if not np.max(resid) <= RESIDUAL_TOL * scale else ()
        if len(again):
            w = _rescue(F, roots[again], zs[again])
            r = np.abs(F.eval(w) - zz[again])
            ok = np.max(r, axis=1) < np.max(resid[again], axis=1)
            roots[again[ok]], resid[again[ok]] = w[ok], r[ok]
        worst = float(resid.max())
        if log.isEnabledFor(logging.DEBUG):
            moved = float(np.max(np.abs(step) / np.maximum(np.abs(roots), 1.0)))
            log.debug(_SOLVE_RECORD, len(zs), roots.shape[1], len(again),
                      worst / scale, moved)
        # A non-finite z fails this test too: its residual is NaN, or inf
        # over a scale of inf.
        if not worst / scale <= RESIDUAL_TOL:
            if not np.isfinite(zs).all():
                raise DomainError(f"cannot solve F(w) = z at non-finite z "
                                  f"{complex(zs[~np.isfinite(zs)][0])!r}")
            i, j = np.unravel_index(np.argmax(resid), resid.shape)
            raise NumericalError(
                f"root polish stalled at residual {worst:.3e}",
                context={"model": F, "z": complex(zs[i]), "root": complex(roots[i, j])})
        return roots
