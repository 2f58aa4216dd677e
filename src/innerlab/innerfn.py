"""Evaluable models of inner functions on the unit disk.

An `InnerModel` is a finite (or truncated-infinite) Blaschke product with
optional singular atom factors.  It evaluates F, F' and the
cancellation-free gap ratio (1-|z|^2)/(1-|F(z)|^2) at a complex number or
elementwise on a complex array, sums the angular-derivative series for
|F'| on the circle, iterates, and reads and writes the text format of
model files.  `FrostmanShift` is a lazy composition with the same
interface.

Blaschke factor convention: b_a(z) = (|a|/a)(a - z)/(1 - conj(a) z) for
a != 0 and b_0(z) = z, so that b_a(0) = |a| > 0 and products are real
positive at the origin; any unimodular constant is carried by `rotation`.

Evaluation core.  `__post_init__` stores the factors once as columns:
(d, 1) arrays of conj(a) and of 1 - |a|^2 for the zeros a; (m, 1) arrays
of the m nonzero zeros, their conjugates, u = |a|/a (Python complex
division, on a scaled by 2^600 so that a subnormal a keeps |u| = 1) and
u (|a|^2 - 1); (k, 1) arrays of the atom base points
zeta_k, of -w_k, 2 w_k and -2 w_k zeta_k.  `eval`, `deriv`, `gap_ratio`
and `boundary_deriv_modulus` flatten their input and broadcast a row of
points against these columns, so the factor axis leads and no Python
loop runs over the factors.  Calls of more than BLOCK_ENTRIES // (d + k)
points (2^15 entries: a block's (factors, points) temporaries stay
cache-sized) run in ceil(n / that) blocks whose sizes differ by at most
one, so no block of a call of two or more points has fewer than two;
smaller calls are one block.

Operation order (a contract: a Birkhoff orbit is chaotic, so a last-bit
change at one step grows along the orbit).  For a finite Blaschke
product on two or more points, `eval` equals bit for bit the reference
loop out = rotation; out = out * b_a(z) over the zeros in order, with
b_0(z) = z copied and b_a(z) = u * (a - z) / (1 - conj(a) z): it reduces
the stack [rotation, b_1, ..., b_d] left to right.  numpy's AVX-512
complex multiply is fused (FMA), so it is not commutative in the last
bit: the core always forms u * (a - z) and rotation * x, in that
operand order.  `gap_ratio` and `boundary_deriv_modulus` read one
(d + k, n) array of Poisson terms, (1 - |a|^2)/|1 - conj(a) z|^2 per
zero, then 2 w/|zeta - z|^2 per atom; |F'| on the circle is its column
sum, taken row after row in that order (zeros in factor order, then
atoms), and `gap_ratio` there is one over the same sum.
`deriv` merges (b', b) pairs pairwise by the product rule: bit-identical
to the sequential product rule for d <= 2 and equal to rounding beyond.
`_eval_deriv` runs deriv's body once, F from eval's stack padded with
ones: its F and F' equal `eval` and `deriv` bit for bit.
Scalars and one-point arrays agree with the reference to rounding only
(their factor-axis product is not fused).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PreconditionError
from .hypgeo import BOUNDARY_TOL

ITERATION_CAP = 10 ** 6
# Factor-by-point entries per evaluation block; see the module docstring.
BLOCK_ENTRIES = 2 ** 15


def _boundary_value(zeta):
    """Coerce boundary-point arguments to e^{i theta}: a complex for scalar
    input, else a complex array of the input's shape.

    Real values are always angles and must be finite; complex values must
    lie on the circle to 1e-9."""
    z = np.asarray(zeta)
    if not np.iscomplexobj(z):
        z = z.astype(float)
        if not np.isfinite(z).all():
            raise PreconditionError(f"angle {zeta!r} is not finite")
        z = np.exp(1j * z)
    else:
        mod = np.abs(z)
        if not np.all(np.abs(mod - 1.0) <= 1e-9):
            raise PreconditionError(f"{zeta!r} does not lie on the unit circle")
        z = z / mod
    return complex(z) if z.ndim == 0 else z


def _column(values, dtype=complex):
    """A (len, 1) array: one row per factor, broadcast against a row of
    points."""
    return np.array(list(values), dtype=dtype).reshape(-1, 1)


def _unimodular(a):
    """|a|/a for a zero a != 0, computed on a * 2^600: the power-of-two
    scale is exact, so it is bit for bit |a|/a for normal a, and lifts a
    subnormal a, whose own quotient is unimodular only to about 1e-11."""
    b = a * 2.0 ** 600
    return abs(b) / b


def _rows(idx):
    """The factor rows in `idx`: a slice when consecutive (cheaper to index
    than an index array), else an index array; None when empty."""
    if idx and idx[-1] - idx[0] == len(idx) - 1:
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx, dtype=np.intp) if idx else None


@dataclass(frozen=True)
class InnerModel:
    """rotation * prod b_{a_i}(z) * prod exp(-s_k (zeta_k+z)/(zeta_k-z)).

    `zeros` lists the a_i with multiplicity; `atoms` is a tuple of
    (boundary angle, weight) pairs for the singular factors.
    """

    rotation: complex = 1.0 + 0j
    zeros: tuple = ()
    atoms: tuple = ()

    def __post_init__(self):
        rot = complex(self.rotation)
        if not abs(abs(rot) - 1.0) <= 1e-12:
            raise PreconditionError(f"rotation must be unimodular: {rot!r}")
        object.__setattr__(self, "rotation", rot / abs(rot))
        zs = tuple(complex(z) for z in self.zeros)
        for z in zs:
            if not abs(z) < 1.0 - BOUNDARY_TOL:
                raise DomainError(f"zero {z!r} not strictly inside the disk")
        object.__setattr__(self, "zeros", zs)
        ats = tuple((float(ang) % (2.0 * np.pi), float(w)) for ang, w in self.atoms)
        for ang, w in ats:
            if not (np.isfinite(ang) and 0 < w < np.inf):
                raise PreconditionError("atom angles must be finite and atom "
                                        "weights positive and finite")
        object.__setattr__(self, "atoms", ats)
        if not zs and not ats:
            raise PreconditionError(
                "degenerate model: needs at least one zero or atom factor "
                "(the rotation map itself is zeros=(0,))")
        moved = [a for a in zs if a != 0]
        columns = {
            "_ac": _column(a.conjugate() for a in zs),
            "_c": _column((1.0 - abs(a) ** 2 for a in zs), float),
            "_a_moved": _column(moved),
            "_ac_moved": _column(a.conjugate() for a in moved),
            "_u": _column(_unimodular(a) for a in moved),
            "_du": _column(_unimodular(a) * (abs(a) ** 2 - 1.0) for a in moved),
            "_zeta": _column(np.exp(1j * ang) for ang, _ in ats),
            "_neg_w": _column((-w for _, w in ats), float),
            "_2w": _column((2.0 * w for _, w in ats), float),
            "_neg_2wzeta": _column(-2.0 * w * np.exp(1j * ang) for ang, w in ats),
            "_moved": _rows([i for i, a in enumerate(zs) if a != 0]),
            "_origin": _rows([i for i, a in enumerate(zs) if a == 0]),
            "_pow2": 1 << max(len(zs) - 1, 0).bit_length(),
            "_block": max(1, BLOCK_ENTRIES // (len(zs) + len(ats))),
        }
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def centered(self) -> bool:
        return any(z == 0 for z in self.zeros)

    @property
    def is_rotation(self) -> bool:
        return self.zeros == (0j,) and not self.atoms

    @staticmethod
    def power_map(d: int) -> "InnerModel":
        """z -> z^d."""
        return InnerModel(zeros=(0j,) * d)

    @staticmethod
    def from_zeros(*zeros) -> "InnerModel":
        return InnerModel(zeros=tuple(zeros))

    @staticmethod
    def atom_map(angle=0.0, weight=1.0) -> "InnerModel":
        """The pure singular factor exp(-w (zeta+z)/(zeta-z))."""
        return InnerModel(atoms=((angle, weight),))

    # -- evaluation --------------------------------------------------------

    def _blocked(self, block, z, dtype, rows=()):
        """`block(zb, out)` on the flattened z, into a preallocated output of
        leading axes `rows`: in one call for at most `_block` points, else in
        ceil(n / _block) blocks whose sizes differ by at most one (a one-point
        block would reduce along the factor axis, where numpy's product rounds
        differently).  The result has shape rows + z.shape, a scalar if ()."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        n = flat.size
        out = np.empty(rows + (n,), dtype=dtype)
        if n <= self._block:
            block(flat, out)
        else:
            parts = -(-n // self._block)
            for zb, ob in zip(np.array_split(flat, parts),
                              np.array_split(out, parts, axis=-1)):
                block(zb, ob)
        return out.reshape(rows + z.shape) if rows or z.ndim else dtype(out[0])

    def _atom_product(self, z):
        """(product of the atom factors at z, the (k, n) differences
        zeta_k - z); raises at atom base points."""
        gaps = self._zeta - z
        hit = np.abs(gaps) < 1e-13
        if np.any(hit):
            ang = self.atoms[int(np.argmax(np.any(hit, axis=1)))][0]
            raise DomainError(f"evaluation at atom base point exp({ang}i)")
        factors = np.exp(self._neg_w * (self._zeta + z) / gaps)
        return np.multiply.reduce(factors, axis=0), gaps

    def _factors(self, z, vals):
        """Blaschke factor values at the points z into the (d, n) rows
        `vals`: origin zeros copy z, the others u (a - z)/(1 - conj(a) z).
        Returns the denominators 1 - conj(a) z of the nonzero zeros' rows
        (None without such zeros)."""
        if self._origin is not None:
            vals[self._origin] = z
        if self._moved is None:
            return None
        den = 1.0 - self._ac_moved * z
        vals[self._moved] = self._u * (self._a_moved - z) / den
        return den

    def _eval_block(self, z, out):
        stack = np.empty((1 + self.degree, z.size), dtype=complex)
        if self.atoms:
            np.multiply(self.rotation, self._atom_product(z)[0], out=stack[0])
        else:
            stack[0] = self.rotation
        self._factors(z, stack[1:])
        np.multiply.reduce(stack, axis=0, out=out)

    def eval(self, z):
        """F(z), vectorized; raises at atom base points."""
        return self._blocked(self._eval_block, z, complex)

    def _deriv_block(self, z, out):
        # `out` is F' or (F, F').  F reduces eval's stack, the first 1 + d of
        # 1 + _pow2 rows; the (b', b) rows, padded with (0, 1), merge pairwise
        # by (f g)' = f' g + f g': no division by a factor that may vanish.
        f_out, out = out if out.ndim == 2 else (None, out)
        stack = np.empty((1 + self._pow2, z.size), dtype=complex)
        prod = stack[1:]
        prod[self.degree:].fill(1.0)
        der = np.zeros((self._pow2, z.size), dtype=complex)
        den = self._factors(z, prod)
        if self._origin is not None:
            der[self._origin] = 1.0
        if den is not None:
            der[self._moved] = self._du / den ** 2
        if self.atoms:
            atom_val, gaps = self._atom_product(z)
        if f_out is not None:
            if self.atoms:
                np.multiply(self.rotation, atom_val, out=stack[0])
            else:
                stack[0] = self.rotation
            np.multiply.reduce(stack[:1 + self.degree], axis=0, out=f_out)
        while len(prod) > 1:
            der = der[0::2] * prod[1::2] + prod[0::2] * der[1::2]
            prod = prod[0::2] * prod[1::2]
        bprime, blaschke = der[0], prod[0]
        if self.atoms:
            atom_logderiv = np.add.reduce(self._neg_2wzeta / gaps ** 2, axis=0)
            bprime = bprime * atom_val + blaschke * atom_val * atom_logderiv
        np.multiply(self.rotation, bprime, out=out)

    def deriv(self, z):
        """F'(z) by the product rule over factors, stable at zeros of F."""
        return self._blocked(self._deriv_block, z, complex)

    def _eval_deriv(self, z):
        """(F, F') at z from one factor pass, bit for bit eval and deriv."""
        return self._blocked(self._deriv_block, z, complex, (2,))

    def iterate(self, z, n: int):
        """n-fold composition F^n(z); n = 0 is the identity."""
        if n < 0:
            raise PreconditionError("iteration count must be nonnegative")
        if n > ITERATION_CAP:
            raise PreconditionError(f"iteration count exceeds cap {ITERATION_CAP}")
        out = np.asarray(z, dtype=complex)
        for _ in range(n):
            out = self.eval(out)
        return complex(out) if np.ndim(out) == 0 else out

    def _poisson_block(self, z):
        """The (d + k, n) Poisson terms at the points z: one row
        (1 - |a|^2)/|1 - conj(a) z|^2 per zero, then one row
        2 w/|zeta - z|^2 per atom, +inf within 1e-13 of zeta."""
        d = self.degree
        terms = np.empty((d + len(self.atoms), z.size))
        np.divide(self._c, np.abs(1.0 - self._ac * z) ** 2, out=terms[:d])
        if self.atoms:
            gap = np.abs(self._zeta - z)
            with np.errstate(divide="ignore"):
                np.divide(self._2w, gap ** 2, out=terms[d:])
            terms[d:][gap < 1e-13] = np.inf
        return terms

    def _gap_ratio_block(self, z, out):
        mod = np.abs(z)
        s = (1.0 - mod) * (1.0 + mod)
        terms = self._poisson_block(z)
        with np.errstate(invalid="ignore", divide="ignore"):
            # 1 - |b_a(z)|^2 = term * s rounds above 1 within about 1e-8 of
            # a zero a; clamped there, log1p gives -inf, not NaN.
            logmod2 = np.maximum(terms[:self.degree] * -s, -1.0)
            logmod2 = np.add.reduce(np.log1p(logmod2, out=logmod2), axis=0)
            if self.atoms:
                logmod2 = logmod2 - np.add.reduce(terms[self.degree:] * s, axis=0)
            denom = -np.expm1(logmod2)
            out[:] = np.where(s > 1e-30, s / np.where(denom == 0, 1.0, denom),
                              1.0 / np.add.reduce(terms, axis=0))

    def gap_ratio(self, z):
        """(1 - |z|^2)/(1 - |F(z)|^2), cancellation-free.

        Uses 1 - |b_a(z)|^2 = (1 - |a|^2)(1 - |z|^2)/|1 - conj(a) z|^2 per
        factor and the Poisson kernel for atom factors, so the quotient
        stays accurate up to (and on) the unit circle, where it equals
        1/|F'(z/|z|)|: one over the column sum of the Poisson terms."""
        return self._blocked(self._gap_ratio_block, z, float)

    def _boundary_block(self, z, out):
        np.add.reduce(self._poisson_block(z), axis=0, out=out)

    def boundary_deriv_modulus(self, zeta):
        """|F'(zeta)| on the circle via the angular-derivative sum
        sum (1-|a_i|^2)/|1-conj(a_i) zeta|^2 + sum 2 w_k/|zeta-zeta_k|^2.

        `zeta` is an angle, a point on the circle, or an array of angles
        or points; returns a float for scalar input, else an array of the
        input's shape, with +inf at atom base points."""
        return self._blocked(self._boundary_block, _boundary_value(zeta), float)

    # -- rational form (finite Blaschke only) ------------------------------

    def _preimage_newton(self, w, z):
        """p/p' at w for p = D (F - z), D = prod (1 - conj(a) w): (F - z)/
        (F sum 1/(w - a) + z sum conj(a)/(1 - conj(a) w)), which does not
        cancel at a pole 1/conj(a) of F as F'/(F - z) + D'/D does."""
        F, ac, w = self.eval(w), self._ac[:, 0], w[..., None]
        return (F - z) / (F * np.sum(1.0 / (w - ac.conj()), axis=-1)
                          + z * np.sum(ac / (1.0 - ac * w), axis=-1))

    @cached_property
    def rational_coeffs(self):
        """(P, Q) lowest-degree-first coefficients with F = P/Q, built on
        first use and kept, read-only.

        Only available when there are no atom factors.
        """
        if self.atoms:
            raise PreconditionError("rational form undefined with atom factors")
        P = np.array([self.rotation], dtype=complex)
        Q = np.array([1.0 + 0j])
        for a in self.zeros:
            if a == 0:
                P = np.convolve(P, [0.0, 1.0])
            else:
                u = _unimodular(a)
                P = np.convolve(P, [u * a, -u])
                Q = np.convolve(Q, [1.0, -np.conj(a)])
        P.flags.writeable = Q.flags.writeable = False
        return P, Q

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"rotation={_fmt(self.rotation.real)},{_fmt(self.rotation.imag)}"]
        for a in self.zeros:
            lines.append(f"zero={_fmt(a.real)},{_fmt(a.imag)}")
        for ang, w in self.atoms:
            lines.append(f"atom={_fmt(ang)},{_fmt(w)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "InnerModel":
        rotation, zeros, atoms = 1.0 + 0j, [], []
        for key, (x, y) in _model_lines(text, {"rotation": 2, "zero": 2,
                                               "atom": 2}):
            if key == "rotation":
                rotation = complex(x, y)
            elif key == "zero":
                zeros.append(complex(x, y))
            else:
                atoms.append((x, y))
        return InnerModel(rotation=rotation, zeros=tuple(zeros), atoms=tuple(atoms))


def _model_lines(text: str, arity=None):
    """(key, values) of each `key=x[,y...]` line of a model file, skipping
    blank lines and # comments; values is a tuple of floats.

    A line without `=` or with a value that is not a number is a
    PreconditionError naming its line number; so, given `arity` (key ->
    number of values), are a key outside it and a wrong count."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, payload = line.partition("=")
        key = key.strip()
        if arity is not None and eq and key not in arity:
            raise PreconditionError(f"unknown model key {key!r} on line {lineno}")
        try:
            values = tuple(float(p) for p in payload.split(","))
        except ValueError:
            values = None
        if not eq or values is None or (arity is not None
                                        and len(values) != arity[key]):
            raise PreconditionError(f"bad model line {lineno}: {raw!r}")
        yield key, values


def _require_blaschke(F: InnerModel, centered=True, reject_rotation=False):
    """PreconditionError unless F is a finite Blaschke product of degree
    >= 1, centered (a zero at the origin) unless `centered` is False, and
    not a rotation when `reject_rotation`."""
    if F.atoms:
        raise PreconditionError("model must be a finite Blaschke product "
                                "(no atoms)")
    if F.degree < 1:
        raise PreconditionError("model needs at least one zero")
    if centered and not F.centered:
        raise PreconditionError("model must be centered (a zero at the origin)")
    if reject_rotation and F.is_rotation:
        raise PreconditionError("model must not be a rotation")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class FrostmanShift:
    """The lazy composition F_a = (F - a)/(1 - conj(a) F), kept as a
    composition for exactness."""

    base: InnerModel
    a: complex

    def __post_init__(self):
        a = complex(self.a)
        if abs(a) >= 1.0 - BOUNDARY_TOL:
            raise DomainError("Frostman parameter must lie inside the disk")
        object.__setattr__(self, "a", a)

    def eval(self, z):
        w = self.base.eval(z)
        return (w - self.a) / (1.0 - np.conj(self.a) * w)

    def deriv(self, z):
        w = self.base.eval(z)
        return self.base.deriv(z) * (1.0 - abs(self.a) ** 2) \
            / (1.0 - np.conj(self.a) * w) ** 2

    def gap_ratio(self, z):
        """Stable (1 - |z|^2)/(1 - |F_a(z)|^2) via the Moebius identity
        1 - |m_a(w)|^2 = (1 - |a|^2)(1 - |w|^2)/|1 - conj(a) w|^2."""
        w = self.base.eval(z)
        return self.base.gap_ratio(z) * np.abs(1.0 - np.conj(self.a) * w) ** 2 \
            / (1.0 - abs(self.a) ** 2)


def frostman_shift(F: InnerModel, a) -> FrostmanShift | InnerModel:
    """Frostman shift of F at a; a = 0 returns F itself."""
    if a == 0:
        return F
    return FrostmanShift(F, a)
