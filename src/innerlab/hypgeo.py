"""Hyperbolic geometry core for the unit disk and the upper half-plane.

Distances, Moebius transformations stored as 2x2 complex matrices,
canonical normalizations between the two models, and numerical geodesic
curvature of sampled curves (computed by Moebius-normalizing the point of
interest to the origin, where hyperbolic curvature is half the Euclidean
curvature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, PoleError, PreconditionError

# Points this close to the boundary are rejected at construction; boundary
# quantities go through dedicated boundary operations instead.
BOUNDARY_TOL = 1e-14

# Moebius domain tags.
DISK_AUT = "disk-automorphism"
HALFPLANE_AUT = "halfplane-automorphism"
DISK_TO_HALFPLANE = "disk-to-halfplane"
HALFPLANE_TO_DISK = "halfplane-to-disk"

_TAG_SOURCE = {
    DISK_AUT: "disk",
    HALFPLANE_AUT: "halfplane",
    DISK_TO_HALFPLANE: "disk",
    HALFPLANE_TO_DISK: "halfplane",
}
_TAG_TARGET = {
    DISK_AUT: "disk",
    HALFPLANE_AUT: "halfplane",
    DISK_TO_HALFPLANE: "halfplane",
    HALFPLANE_TO_DISK: "disk",
}
_TAG_BY_MODELS = {(s, t): tag for tag, (s, t) in
                  ((k, (_TAG_SOURCE[k], _TAG_TARGET[k])) for k in _TAG_SOURCE)}


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disk."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if abs(v) >= 1.0 - BOUNDARY_TOL:
            raise DomainError(f"not strictly inside the unit disk: {v!r}")

    @property
    def model(self):
        return "disk"


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point of the open upper half-plane."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if v.imag <= BOUNDARY_TOL:
            raise DomainError(f"not in the open upper half-plane: {v!r}")

    @property
    def model(self):
        return "halfplane"


def _unwrap(x):
    """Return (complex value, model tag or None) for a point-like input."""
    if isinstance(x, (DiskPoint, HalfPlanePoint)):
        return x.value, x.model
    return complex(x), None


def hyp_distance(x, y) -> float:
    """Hyperbolic distance (curvature -1) between two points of one model.

    Accepts DiskPoint/HalfPlanePoint pairs, or raw complex numbers which
    are interpreted in the disk model.  Mixing models is a usage error.
    """
    xv, xm = _unwrap(x)
    yv, ym = _unwrap(y)
    if xm is not None and ym is not None and xm != ym:
        raise PreconditionError(f"mixed models: {xm} vs {ym}")
    model = xm or ym or "disk"
    if model == "disk":
        return disk_distance(xv, yv)
    return halfplane_distance(xv, yv)


def disk_distance(z, w):
    """d(z, w) = 2 artanh |(z - w)/(1 - conj(w) z)| on the unit disk."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = np.abs((z - w) / (1.0 - np.conj(w) * z))
    out = 2.0 * np.arctanh(np.clip(q, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def halfplane_distance(z, w):
    """Hyperbolic distance in the upper half-plane model."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    num = np.abs(z - w) ** 2
    out = np.arccosh(1.0 + num / (2.0 * z.imag * w.imag))
    return float(out) if out.ndim == 0 else out


def origin_distance(r):
    """d(0, z) for |z| = r; the radial profile log((1+r)/(1-r)).

    Returns +inf at r = 1.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log1p(r) - np.log1p(-r)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Moebius:
    """A Moebius transformation (az + b)/(cz + d) with a domain tag.

    The matrix is renormalized so ad - bc = 1 (up to sign); composition is
    matrix multiplication.  The tag is validated at construction by mapping
    test points of the source boundary and checking they land on the target
    boundary to 1e-12.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    tag: str = DISK_AUT
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-30:
            raise PreconditionError("singular Moebius matrix")
        s = np.sqrt(complex(det))
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            object.__setattr__(self, name, complex(v) / s)
        if self.tag not in _TAG_SOURCE:
            raise PreconditionError(f"unknown Moebius tag {self.tag!r}")
        if self._validate:
            self._check_tag()

    def _check_tag(self):
        if _TAG_SOURCE[self.tag] == "disk":
            probes = [1.0 + 0j, 1j, np.exp(2.7j)]
        else:
            probes = [0.0 + 0j, 1.0 + 0j, -2.5 + 0j]
        for p in probes:
            w = self._raw(p)
            if _TAG_TARGET[self.tag] == "disk":
                err = abs(abs(w) - 1.0)
            else:
                err = abs(w.imag)
            if err > 1e-12:
                raise PreconditionError(
                    f"matrix does not realize tag {self.tag!r}: "
                    f"probe {p} maps to {w} (boundary error {err:.2e})")

    def _raw(self, z):
        den = self.c * z + self.d
        if abs(den) < 1e-300:
            raise PoleError(f"Moebius pole at z = {z!r}")
        return (self.a * z + self.b) / den

    def __call__(self, x):
        return moebius_apply(self, x)

    def __matmul__(self, other):
        """self after other (matrix product), with tag composition."""
        if not isinstance(other, Moebius):
            return NotImplemented
        if _TAG_TARGET[other.tag] != _TAG_SOURCE[self.tag]:
            raise PreconditionError(
                f"cannot compose {self.tag!r} after {other.tag!r}")
        tag = _TAG_BY_MODELS[(_TAG_SOURCE[other.tag], _TAG_TARGET[self.tag])]
        return Moebius(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d,
                       tag=tag, _validate=False)

    def inverse(self) -> "Moebius":
        tag = _TAG_BY_MODELS[(_TAG_TARGET[self.tag], _TAG_SOURCE[self.tag])]
        return Moebius(self.d, -self.b, -self.c, self.a, tag=tag,
                       _validate=False)

    @staticmethod
    def identity(model="disk") -> "Moebius":
        tag = DISK_AUT if model == "disk" else HALFPLANE_AUT
        return Moebius(1, 0, 0, 1, tag=tag, _validate=False)

    @staticmethod
    def rotation(theta: float) -> "Moebius":
        return Moebius(np.exp(1j * theta / 2), 0, 0, np.exp(-1j * theta / 2),
                       tag=DISK_AUT, _validate=False)

    @staticmethod
    def disk_translation(a) -> "Moebius":
        """The automorphism z -> (z - a)/(1 - conj(a) z), sending a to 0."""
        a, _ = _unwrap(a)
        if abs(a) >= 1:
            raise DomainError("center must lie in the unit disk")
        return Moebius(1, -a, -np.conj(a), 1, tag=DISK_AUT, _validate=False)

    @staticmethod
    def cayley() -> "Moebius":
        """The standard disk -> half-plane map z -> i(1 + z)/(1 - z)."""
        return Moebius(1j, 1j, -1, 1, tag=DISK_TO_HALFPLANE, _validate=False)

    @staticmethod
    def to_disk(p) -> "Moebius":
        """The canonical half-plane -> disk map taking i to p."""
        p, _ = _unwrap(p)
        if abs(p) >= 1:
            raise DomainError("target point must lie in the unit disk")
        move = Moebius(1, p, np.conj(p), 1, tag=DISK_AUT, _validate=False)
        return move @ Moebius.cayley().inverse()


def moebius_apply(m: Moebius, x):
    """Apply m to a point.

    Wrapped points are checked against m's source model and the result is
    returned wrapped in the target model (validating its invariant).  Raw
    complex inputs are mapped without interior validation, which is the
    right behavior for boundary probes.
    """
    xv, xm = _unwrap(x)
    if xm is not None and xm != _TAG_SOURCE[m.tag]:
        raise PreconditionError(
            f"{m.tag!r} applied to a point of the {xm} model")
    w = m._raw(xv)
    if xm is None:
        return w
    if _TAG_TARGET[m.tag] == "disk":
        if abs(w) >= 1.0 + 1e-12:
            raise DomainError(f"image {w!r} violates the disk invariant")
        return DiskPoint(w)
    if w.imag <= -1e-12:
        raise DomainError(f"image {w!r} violates the half-plane invariant")
    return HalfPlanePoint(w)


def straight_moebius(a, b) -> Moebius:
    """The 'straight' disk automorphism taking a -> b, a/|a| -> b/|b|,
    -a/|a| -> -b/|b|.

    It is the composition of a rotation aligning a with the positive real
    axis, the hyperbolic translation along (-1, 1) taking |a| to |b|, and
    the rotation back onto b's direction.
    """
    av, _ = _unwrap(a)
    bv, _ = _unwrap(b)
    if abs(av) < BOUNDARY_TOL or abs(bv) < BOUNDARY_TOL:
        raise PreconditionError("straight Moebius undefined for a = 0 or b = 0")
    if abs(av) >= 1 or abs(bv) >= 1:
        raise DomainError("arguments must lie in the unit disk")
    u = av / abs(av)
    v = bv / abs(bv)
    c = (abs(av) - abs(bv)) / (1.0 - abs(av) * abs(bv))
    # (x - c)/(1 - c x) fixes +-1 and sends |a| to |b| along the diameter.
    slide = Moebius(1, -c, -c, 1, tag=DISK_AUT, _validate=False)
    rot_in = Moebius(np.conj(u), 0, 0, 1, tag=DISK_AUT, _validate=False)
    rot_out = Moebius(v, 0, 0, 1, tag=DISK_AUT, _validate=False)
    m = rot_out @ slide @ rot_in
    for src, dst in ((av, bv), (u, v), (-u, -v)):
        if abs(m._raw(src) - dst) > 1e-12:
            raise NumericalError("straight Moebius verification failed",
                                 context=(av, bv))
    return m


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


def geodesic_curvature_of(curve, t0, h=1e-3, target=1e-4, max_halvings=12) -> float:
    """Adaptive-curvature variant for a callable curve t -> point in D.

    Resamples with halved spacing until two successive stencil estimates
    agree to `target` (the stencil residual criterion).
    """
    prev = None
    for _ in range(max_halvings):
        ts = t0 + h * np.arange(-2.0, 3.0)
        pts = np.asarray([curve(t) for t in ts], dtype=complex)
        est = geodesic_curvature(pts, 2, params=ts)
        if prev is not None and abs(est - prev) <= target:
            return est
        prev = est
        h /= 2.0
    raise NumericalError(f"curvature stencil did not settle to {target}")
