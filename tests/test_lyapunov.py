import logging

import numpy as np
import pytest

from conftest import random_centered_blaschke
from innerlab.errors import PreconditionError
from innerlab.innerfn import InnerModel
from innerlab.lyapunov import (chi, chi_birkhoff, chi_jensen_oracle,
                               chi_quadrature)

DEG2_CHI = np.log(1 + np.sqrt(3) / 2)


class TestQuadrature:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_power_map(self, d):
        est = chi_quadrature(InnerModel.power_map(d), 1e-11)
        assert est.value == pytest.approx(np.log(d), abs=1e-10)

    def test_deg2(self, deg2):
        est = chi_quadrature(deg2, 1e-10)
        assert est.value == pytest.approx(DEG2_CHI, abs=1e-8)

    def test_rotation_is_zero(self):
        est = chi_quadrature(InnerModel(rotation=1j, zeros=(0j,)), 1e-10)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_monotone_refinement(self, rng):
        for _ in range(5):
            F = random_centered_blaschke(rng)
            coarse = chi_quadrature(F, 1e-6)
            fine = chi_quadrature(F, 5e-7)
            assert abs(fine.value - coarse.value) <= max(coarse.error, 1e-12)

    def test_single_atom_closed_form(self):
        # |F'| = 2w/|zeta - 1|^2 on the circle and the mean of
        # log|1 - e^{i theta}| vanishes, so chi = log(2w).
        for w in (0.5, 1.0, 2.0):
            est = chi_quadrature(InnerModel.atom_map(0.0, w), 1e-8)
            assert est.value == pytest.approx(np.log(2 * w), abs=1e-6)
            assert est.error < 1e-5

    def test_atom_windows_closed_form(self):
        # One atom: chi = log(2w).  Two antipodal atoms of weight w:
        # |F'| = 2w/sin^2(theta), whose log-mean is log(8w).  The reported
        # error must cover the true error, both excluded windows included.
        cases = [(((0.0, w),), np.log(2 * w)) for w in (0.5, 1.0, 2.0)]
        cases += [(((0.0, w), (np.pi, w)), np.log(8 * w)) for w in (0.5, 2.0)]
        for atoms, exact in cases:
            est = chi_quadrature(InnerModel(zeros=(), atoms=atoms))
            assert abs(est.value - exact) <= est.error <= 1e-9, atoms


    def test_one_debug_record_per_arc(self, caplog):
        # Two atoms leave two arcs between their exclusion windows.
        F = InnerModel(zeros=(0j,), atoms=((0.0, 0.5), (np.pi, 0.5)))
        tol = 1e-9
        with caplog.at_level(logging.DEBUG, logger="innerlab.lyapunov"):
            chi_quadrature(F, tol)
        records = [r for r in caplog.records
                   if r.name == "innerlab.lyapunov" and r.levelno == logging.DEBUG]
        assert len(records) == 2
        (a0, b0, n0, err0, tol0, rounds0), (a1, b1, _, _, tol1, _) = \
            (r.args for r in records)
        assert (a0, b0, a1, b1) == pytest.approx(
            (tol, np.pi - tol, np.pi + tol, 2 * np.pi - tol), abs=1e-15)
        assert tol0 == tol1 == tol * 2 * np.pi
        assert 1 <= rounds0 <= n0 and 0 <= err0 <= tol0
        assert "panels" in records[0].getMessage()


class TestJensenOracle:
    def test_square(self, square):
        assert chi_jensen_oracle(square).value == pytest.approx(np.log(2),
                                                                abs=1e-12)

    def test_cube(self):
        assert chi_jensen_oracle(InnerModel.power_map(3)).value == pytest.approx(
            np.log(3), abs=1e-12)

    def test_deg2_hand_algebra(self, deg2):
        # Critical point 2 - sqrt(3), |F'(0)| = 1/2:
        # chi = log((1/2)/(2 - sqrt 3)) = log(1 + sqrt(3)/2).
        assert chi_jensen_oracle(deg2).value == pytest.approx(DEG2_CHI, abs=1e-12)

    def test_degree_one_rejected(self):
        with pytest.raises(PreconditionError):
            chi_jensen_oracle(InnerModel(zeros=(0j,)))

    def test_agreement_with_quadrature(self, rng):
        worst = 0.0
        for _ in range(30):
            F = random_centered_blaschke(rng)
            worst = max(worst, abs(chi_quadrature(F, 1e-10).value
                                   - chi_jensen_oracle(F).value))
        assert worst < 1e-8

    def test_positive_for_centered(self, rng):
        for _ in range(10):
            assert chi_jensen_oracle(random_centered_blaschke(rng)).value > 0


class TestBirkhoff:
    def test_single_step_exact(self, deg2):
        est = chi_birkhoff(deg2, 0.7, 1)
        assert est.value == pytest.approx(
            np.log(deg2.boundary_deriv_modulus(0.7)), abs=1e-12)
        assert est.error == np.inf

    def test_power_map_constant_integrand(self, square):
        est = chi_birkhoff(square, 1.1, 10 ** 4, seed=1)
        assert est.value == pytest.approx(np.log(2), abs=1e-12)

    def test_deg2_within_stated_errors(self, deg2):
        est = chi_birkhoff(deg2, 0.7, 2 * 10 ** 5, seed=7)
        assert abs(est.value - DEG2_CHI) <= 4 * est.error

    def test_rotation_rejected(self):
        with pytest.raises(PreconditionError):
            chi_birkhoff(InnerModel(zeros=(0j,)), 0.7, 100)

    def test_seed_chooses_the_starts(self, deg2):
        a = chi_birkhoff(deg2, 0.7, 10 ** 4, seed=1)
        b = chi_birkhoff(deg2, 0.7, 10 ** 4, seed=2)
        assert a.value != b.value
        assert chi_birkhoff(deg2, 0.7, 10 ** 4, seed=1) == a

    def test_fewer_steps_than_batches(self, deg2, square):
        est = chi_birkhoff(deg2, 0.7, 5)
        assert np.isfinite(est.value) and 0 < est.error < np.inf
        # Five one-step orbits of a constant integrand: no spread at all.
        est = chi_birkhoff(square, 0.7, 5)
        assert est.value == pytest.approx(np.log(2), abs=1e-12)
        assert est.error < 1e-12


def _reference_eval(F, z):
    """F(z) on an array, factor by factor: ((rotation * b_1) * b_2) * ..."""
    out = np.full(z.shape, F.rotation)
    for a in F.zeros:
        out = out * (z if a == 0 else abs(a) / a * (a - z) / (1.0 - np.conj(a) * z))
    return out


def _reference_boundary_modulus(F, z):
    """sum (1 - |a|^2)/|z - a|^2 over the zeros in order, with hypot, after
    renormalizing z onto the circle."""
    z = z / np.abs(z)
    total = np.zeros(z.shape)
    for a in F.zeros:
        total = total + (1.0 - abs(a) ** 2) / np.hypot((z - a).real, (z - a).imag) ** 2
    return total


class TestBirkhoffDeterminism:
    """A Birkhoff orbit is chaotic: a last-bit change in F at one step grows
    along the orbit.  The array core must reproduce the per-factor product
    exactly."""

    @staticmethod
    def _model(origin_at):
        rng = np.random.default_rng(606)
        zeros = list(0.9 * np.sqrt(rng.uniform(size=5))
                     * np.exp(2j * np.pi * rng.uniform(size=5)))
        zeros.insert(origin_at, 0j)
        return InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()),
                          zeros=tuple(zeros))

    @pytest.mark.parametrize("origin_at", [0, 3])
    def test_eval_matches_factor_loop_bitwise(self, origin_at):
        F = self._model(origin_at)
        z = np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=4096))
        assert np.array_equal(F.eval(z), _reference_eval(F, z))
        assert np.array_equal(F.boundary_deriv_modulus(z),
                              _reference_boundary_modulus(F, z))

    @pytest.mark.parametrize("origin_at", [0, 3])
    def test_orbit_matches_factor_loop(self, origin_at):
        F = self._model(origin_at)
        n, lanes = 4096, 32
        rng = np.random.default_rng(5)
        z = np.concatenate(([1.0 + 0j],
                            np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=lanes - 1))))
        sums = np.zeros(lanes)
        for _ in range(n // lanes):
            sums += np.log(_reference_boundary_modulus(F, z))
            w = _reference_eval(F, z)
            z = w / np.abs(w)
        ref = float(np.sum(sums) / n)
        est = chi_birkhoff(F, 0.0, n=n, seed=5)
        assert est.value == pytest.approx(ref, rel=1e-13, abs=0)


class TestAngularDerivative:
    def test_square(self, square):
        assert square.boundary_deriv_modulus(0.3) == pytest.approx(2.0)

    def test_truncated_products_blow_up(self):
        prev = None
        for K in range(4, 10):
            F = InnerModel.from_zeros(*[1 - 2.0 ** -k for k in range(1, K + 1)])
            val = F.boundary_deriv_modulus(0.0)
            if prev is not None:
                assert val > 2.0 * prev
            prev = val

    def test_atom_base_infinite(self):
        F = InnerModel.atom_map(0.3, 1.0)
        assert F.boundary_deriv_modulus(0.3) == np.inf


def test_chi_convenience(deg2):
    assert chi(deg2) == pytest.approx(DEG2_CHI, abs=1e-10)
    assert chi(InnerModel(zeros=(0j,))) == pytest.approx(0.0, abs=1e-10)
