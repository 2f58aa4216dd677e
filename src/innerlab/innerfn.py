"""Evaluable models of inner functions on the unit disk.

An `InnerModel` is a finite (or truncated-infinite) Blaschke product with
optional singular atom factors.  It evaluates F, F' and the
cancellation-free gap ratio (1-|z|^2)/(1-|F(z)|^2) at a complex number or
elementwise on a complex array, sums the angular-derivative series for
|F'| on the circle, iterates, and reads and writes the text format of
model files.  `FrostmanShift` and `ComposedMap` are lazy compositions with
the same interface.

Blaschke factor convention: b_a(z) = (|a|/a)(a - z)/(1 - conj(a) z) for
a != 0 and b_0(z) = z, so that b_a(0) = |a| > 0 and products are real
positive at the origin; any unimodular constant is carried by `rotation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .hypgeo import BOUNDARY_TOL

ITERATION_CAP = 10 ** 6


def _boundary_value(zeta):
    """Coerce boundary-point arguments to e^{i theta}: a complex for scalar
    input, else a complex array of the input's shape.

    Real values are always angles; complex values must lie on the circle
    to 1e-9."""
    z = np.asarray(zeta)
    if not np.iscomplexobj(z):
        z = np.exp(1j * z.astype(float))
    elif np.all(np.abs(np.abs(z) - 1.0) <= 1e-9):
        z = z / np.abs(z)
    else:
        raise PreconditionError(f"{zeta!r} does not lie on the unit circle")
    return complex(z) if z.ndim == 0 else z


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
        if abs(abs(rot) - 1.0) > 1e-12:
            raise PreconditionError(f"rotation must be unimodular: {rot!r}")
        object.__setattr__(self, "rotation", rot / abs(rot))
        zs = tuple(complex(z) for z in self.zeros)
        for z in zs:
            if abs(z) >= 1.0 - BOUNDARY_TOL:
                raise DomainError(f"zero {z!r} not strictly inside the disk")
        object.__setattr__(self, "zeros", zs)
        ats = tuple((float(ang) % (2.0 * np.pi), float(w)) for ang, w in self.atoms)
        for _, w in ats:
            if w <= 0:
                raise PreconditionError("atom weights must be positive")
        object.__setattr__(self, "atoms", ats)
        if not zs and not ats:
            raise PreconditionError(
                "degenerate model: needs at least one zero or atom factor "
                "(the rotation map itself is zeros=(0,))")

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
    def power_map(d: int, rotation=1.0) -> "InnerModel":
        """z -> rotation * z^d."""
        return InnerModel(rotation=rotation, zeros=(0j,) * d)

    @staticmethod
    def from_zeros(*zeros, rotation=1.0) -> "InnerModel":
        return InnerModel(rotation=rotation, zeros=tuple(zeros))

    @staticmethod
    def atom_map(angle=0.0, weight=1.0) -> "InnerModel":
        """The pure singular factor exp(-w (zeta+z)/(zeta-z))."""
        return InnerModel(atoms=((angle, weight),))

    # -- evaluation --------------------------------------------------------

    def _factor_values(self, z):
        """(d, ...) array of Blaschke factor values at z."""
        z = np.asarray(z, dtype=complex)
        vals = np.empty((len(self.zeros),) + z.shape, dtype=complex)
        for i, a in enumerate(self.zeros):
            if a == 0:
                vals[i] = z
            else:
                u = abs(a) / a
                vals[i] = u * (a - z) / (1.0 - np.conj(a) * z)
        return vals

    def _atom_values(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for ang, w in self.atoms:
            zeta = np.exp(1j * ang)
            out = out * np.exp(-w * (zeta + z) / (zeta - z))
        return out

    def _check_not_atom(self, z):
        if not self.atoms:
            return
        z = np.asarray(z, dtype=complex)
        for ang, _ in self.atoms:
            zeta = np.exp(1j * ang)
            if np.any(np.abs(z - zeta) < 1e-13):
                raise DomainError(f"evaluation at atom base point exp({ang}i)")

    def eval(self, z):
        """F(z), vectorized; raises at atom base points."""
        self._check_not_atom(z)
        out = np.asarray(self.rotation * self._atom_values(z), dtype=complex)
        for v in self._factor_values(z):
            out = out * v
        return complex(out) if out.ndim == 0 else out

    def __call__(self, z):
        return self.eval(z)

    def deriv(self, z):
        """F'(z) by the product rule over factors, stable at zeros of F."""
        self._check_not_atom(z)
        z = np.asarray(z, dtype=complex)
        vals = self._factor_values(z)
        ders = np.empty_like(vals)
        for i, a in enumerate(self.zeros):
            if a == 0:
                ders[i] = 1.0
            else:
                u = abs(a) / a
                ders[i] = u * (abs(a) ** 2 - 1.0) / (1.0 - np.conj(a) * z) ** 2
        atom_val = self._atom_values(z)
        atom_logderiv = np.zeros_like(z)
        for ang, w in self.atoms:
            zeta = np.exp(1j * ang)
            atom_logderiv = atom_logderiv - 2.0 * w * zeta / (zeta - z) ** 2
        blaschke = np.ones_like(z)
        bprime = np.zeros_like(z)
        for i in range(len(self.zeros)):
            bprime = bprime * vals[i] + blaschke * ders[i]
            blaschke = blaschke * vals[i]
        out = self.rotation * (bprime * atom_val
                               + blaschke * atom_val * atom_logderiv)
        return complex(out) if out.ndim == 0 else out

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

    def gap_ratio(self, z):
        """(1 - |z|^2)/(1 - |F(z)|^2), cancellation-free.

        Uses 1 - |b_a(z)|^2 = (1 - |a|^2)(1 - |z|^2)/|1 - conj(a) z|^2 per
        factor and the Poisson kernel for atom factors, so the quotient
        stays accurate up to (and on) the unit circle, where it equals
        1/|F'(z/|z|)|."""
        z = np.asarray(z, dtype=complex)
        s = (1.0 - np.abs(z)) * (1.0 + np.abs(z))
        csum = np.zeros(z.shape)
        logmod2 = np.zeros(z.shape)
        for a in self.zeros:
            c = (1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2
            csum = csum + c
            logmod2 = logmod2 + np.log1p(-c * s)
        for ang, wgt in self.atoms:
            zeta = np.exp(1j * ang)
            kern = 2.0 * wgt / np.abs(zeta - z) ** 2
            csum = csum + kern
            logmod2 = logmod2 - kern * s
        denom = -np.expm1(logmod2)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(s > 1e-30, s / np.where(denom == 0, 1.0, denom),
                           1.0 / csum)
        return float(out) if out.ndim == 0 else out

    def boundary_deriv_modulus(self, zeta):
        """|F'(zeta)| on the circle via the angular-derivative sum
        sum (1-|a_i|^2)/|zeta-a_i|^2 + sum 2 w_k/|zeta-zeta_k|^2.

        `zeta` is an angle, a point on the circle, or an array of angles
        or points; returns a float for scalar input, else an array of the
        input's shape, with +inf at atom base points."""
        z = _boundary_value(zeta)

        def dist(p):
            # hypot agrees with abs() of a Python complex to the last bit;
            # numpy's complex abs does not.
            dz = z - p
            return np.hypot(dz.real, dz.imag)

        total = np.zeros(np.shape(z))
        for a in self.zeros:
            total = total + (1.0 - abs(a) ** 2) / dist(a) ** 2
        for ang, w in self.atoms:
            gap = dist(np.exp(1j * ang))
            with np.errstate(divide="ignore"):
                total = total + np.where(gap < 1e-13, np.inf, 2.0 * w / gap ** 2)
        return float(total) if total.ndim == 0 else total

    # -- rational form (finite Blaschke only) ------------------------------

    def rational_coeffs(self):
        """(P, Q) lowest-degree-first coefficients with F = P/Q.

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
                u = abs(a) / a
                P = np.convolve(P, [u * a, -u])
                Q = np.convolve(Q, [1.0, -np.conj(a)])
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
        rotation = 1.0 + 0j
        zeros = []
        atoms = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, payload = line.split("=", 1)
                x, y = (float(p) for p in payload.split(","))
            except ValueError as exc:
                raise PreconditionError(
                    f"bad model line {lineno}: {raw!r}") from exc
            key = key.strip()
            if key == "rotation":
                rotation = complex(x, y)
            elif key == "zero":
                zeros.append(complex(x, y))
            elif key == "atom":
                atoms.append((x, y))
            else:
                raise PreconditionError(f"unknown model key {key!r} on line {lineno}")
        return InnerModel(rotation=rotation, zeros=tuple(zeros), atoms=tuple(atoms))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class FrostmanShift:
    """The lazy composition F_a = (F - a)/(1 - conj(a) F).

    Kept as a composition for exactness; re-expansion into Blaschke form
    is an explicit call in the preimage module.
    """

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

    def __call__(self, z):
        return self.eval(z)

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


@dataclass(frozen=True)
class ComposedMap:
    """outer o inner, evaluable with derivative by the chain rule."""

    outer: object
    inner: object

    def eval(self, z):
        return self.outer.eval(self.inner.eval(z))

    def __call__(self, z):
        return self.eval(z)

    def deriv(self, z):
        mid = self.inner.eval(z)
        return self.outer.deriv(mid) * self.inner.deriv(z)

    def gap_ratio(self, z):
        mid = self.inner.eval(z)
        return self.inner.gap_ratio(z) * self.outer.gap_ratio(mid)
