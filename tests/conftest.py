from dataclasses import dataclass

import numpy as np
import pytest

from innerlab.innerfn import InnerModel


def random_centered_blaschke(rng, dmax=6, rmax=0.9, rotate=True):
    """A random centered Blaschke product of degree 2..dmax."""
    d = int(rng.integers(2, dmax + 1))
    zeros = [0j]
    while len(zeros) < d:
        w = rng.uniform(-rmax, rmax) + 1j * rng.uniform(-rmax, rmax)
        if abs(w) < rmax:
            zeros.append(w)
    rot = np.exp(2j * np.pi * rng.uniform()) if rotate else 1.0
    return InnerModel(rotation=rot, zeros=tuple(zeros))


def random_disk_point(rng, rmin=0.05, rmax=0.9):
    r = rng.uniform(rmin, rmax)
    return r * np.exp(2j * np.pi * rng.uniform())


@dataclass(frozen=True)
class Composed:
    """outer o inner with the chain-rule derivative and gap ratio: the
    composition oracle of the distortion composition law."""

    outer: object
    inner: object

    def eval(self, z):
        return self.outer.eval(self.inner.eval(z))

    def deriv(self, z):
        return self.outer.deriv(self.inner.eval(z)) * self.inner.deriv(z)

    def gap_ratio(self, z):
        return self.inner.gap_ratio(z) * self.outer.gap_ratio(self.inner.eval(z))


def geodesic_curvature(points, index, params=None):
    """Hyperbolic geodesic curvature of a sampled disk curve at one sample:
    half the Euclidean curvature at the origin after Moebius-normalizing
    the sample to 0, from the exact quartic through the 5-point window
    around it (`params` defaults to the sample index).  A test oracle,
    pinned to closed forms in test_hypgeo."""
    points = np.asarray(points, dtype=complex)
    if not 2 <= index <= len(points) - 3:
        raise ValueError("index needs two samples on each side")
    if params is None:
        params = np.arange(len(points), dtype=float)
    p = points[index]
    w = ((points - p) / (1.0 - np.conj(p) * points))[index - 2: index + 3]
    t = np.asarray(params[index - 2: index + 3], dtype=float) - params[index]
    coef = np.linalg.solve(np.vander(t, 5, increasing=True), w)
    d1, d2 = coef[1], 2.0 * coef[2]
    if abs(d1) < 1e-13:
        raise ValueError("degenerate stencil: vanishing tangent")
    return 0.5 * abs((np.conj(d1) * d2).imag) / abs(d1) ** 3


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def deg2():
    return InnerModel.from_zeros(0, 0.5)


@pytest.fixture
def square():
    return InnerModel.power_map(2)
