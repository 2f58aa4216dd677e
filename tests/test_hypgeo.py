import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import geodesic_curvature
from innerlab.hypgeo import disk_distance, origin_distance

interior = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                              allow_infinity=False)


def random_disk_aut(rng):
    """A random disk automorphism z -> e^{i theta}(z - a)/(1 - conj(a) z)."""
    a = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return lambda z: rot * (z - a) / (1.0 - np.conj(a) * z)


class TestDistance:
    def test_identity_case(self):
        assert disk_distance(0, 0) == 0.0

    def test_radial_value(self):
        assert disk_distance(0, 0.5) == pytest.approx(np.log(3.0), abs=1e-14)

    def test_origin_distance_consistency(self):
        r = 0.77
        assert origin_distance(r) == pytest.approx(disk_distance(0, r), rel=1e-14)

    @given(z=interior, w=interior)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, z, w):
        assert disk_distance(z, w) == pytest.approx(disk_distance(w, z), abs=1e-10)

    @given(z=interior, w=interior, v=interior)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, z, w, v):
        assert disk_distance(z, w) <= (disk_distance(z, v)
                                       + disk_distance(v, w) + 1e-10)

    def test_moebius_invariance(self, rng):
        for _ in range(50):
            m = random_disk_aut(rng)
            z = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            lhs = disk_distance(m(z), m(w))
            assert lhs == pytest.approx(disk_distance(z, w), abs=1e-10)


class TestGeodesicCurvature:
    """The 5-point curvature stencil is the oracle of the distortion
    curvature bound (conftest.geodesic_curvature); these pin it to closed
    forms."""

    def test_diameter_is_geodesic(self):
        pts = np.linspace(-0.5, 0.5, 11) + 0j
        assert geodesic_curvature(pts, 5) == pytest.approx(0.0, abs=1e-10)

    def test_horocycle_curvature_one(self):
        # Horocycle through 0: circle of radius 1/2 tangent at 1; the point
        # at angle pi on it is the origin.
        h = 1e-3
        ts = np.pi + h * np.arange(-2.0, 3.0)
        pts = 0.5 + 0.5 * np.exp(1j * ts)
        k = geodesic_curvature(pts, 2, params=ts)
        assert k == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_centered_circle_formula(self, r):
        # Moebius-normalizing a centered circle gives kappa = (1+r^2)/(2r).
        h = 1e-3
        ts = 0.7 + h * np.arange(-2.0, 3.0)
        pts = r * np.exp(1j * ts)
        k = geodesic_curvature(pts, 2, params=ts)
        assert k == pytest.approx((1 + r * r) / (2 * r), abs=1e-3)

    def test_moebius_invariance(self, rng):
        h = 5e-4
        ts = h * np.arange(-2.0, 3.0)
        pts = 0.5 * np.exp(1j * (0.3 + ts))
        base = geodesic_curvature(pts, 2, params=ts)
        for _ in range(10):
            m = random_disk_aut(rng)
            moved = m(pts)
            assert geodesic_curvature(moved, 2, params=ts) == pytest.approx(
                base, abs=2e-3)

    def test_degenerate_stencil(self):
        pts = np.zeros(5, dtype=complex)
        with pytest.raises(ValueError, match="vanishing tangent"):
            geodesic_curvature(pts, 2)

    def test_needs_interior_index(self):
        pts = np.linspace(-0.5, 0.5, 5) + 0j
        with pytest.raises(ValueError, match="two samples"):
            geodesic_curvature(pts, 1)
