import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_centered_blaschke
from innerlab.cli import COUNT_COLUMNS, _write_csv
from innerlab.counting import (CountingProfile, apriori_constant, cesaro,
                               count, counting_report, estimate_schwarz_gap,
                               target_constant)
from innerlab.errors import DomainError, PreconditionError
from innerlab.hypgeo import origin_distance
from innerlab.innerfn import InnerModel
from innerlab.lyapunov import chi_jensen_oracle
from innerlab.preimage import enumerate_ball


def profile_for(F, z, R):
    return CountingProfile.from_tree(enumerate_ball(F, z, R))


@pytest.fixture(scope="module")
def square_profile():
    return profile_for(InnerModel.power_map(2), np.exp(-1.0), 6.0)


class TestCount:
    def test_base_only(self, square_profile):
        assert count(square_profile, 1.0) == 1

    def test_first_packet(self, square_profile):
        assert count(square_profile, 1.5) == 3

    def test_zero_radius(self, square_profile):
        assert count(square_profile, 0.0) == 0

    def test_beyond_cutoff_rejected(self, square_profile):
        with pytest.raises(PreconditionError):
            count(square_profile, 7.0)

    def test_step_structure_power_map(self, square_profile):
        # Constant between packet radii, jumps by exactly 2^n at packets.
        total = 0
        for n in range(6):
            r = np.exp(-(0.5 ** n))
            d = np.log((1 + r) / (1 - r))
            if d > 6.0:
                break
            assert count(square_profile, d - 1e-9) == total
            total += 2 ** n
            assert count(square_profile, d + 1e-9) == total
            assert count(square_profile, min(d + 0.3, 6.0)) == total


class TestCesaro:
    def test_empty_profile(self):
        prof = CountingProfile(0.5, np.empty(0), 4.0)
        assert cesaro(prof, 3.0) == 0.0

    def test_single_radius_boundary_term(self):
        prof = CountingProfile(0.5, np.array([1.25]), 4.0)
        assert cesaro(prof, 1.25) == pytest.approx(0.0, abs=1e-15)

    def test_square_hand_value(self, square_profile):
        # Recomputed from the closed-form radii: (1/2)[(e^-d0 - e^-2)
        # + 2 (e^-d1 - e^-2)] with d0, d1 the first two packet radii.
        d0 = origin_distance(np.exp(-1.0))
        d1 = origin_distance(np.exp(-0.5))
        expect = 0.5 * ((np.exp(-d0) - np.exp(-2.0))
                        + 2 * (np.exp(-d1) - np.exp(-2.0)))
        assert cesaro(square_profile, 2.0) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.27297, abs=5e-6)

    def test_prefix_equals_masked_sum(self, rng):
        # Unsorted radii with ties are sorted once; cesaro sums the prefix
        # of radii <= R, the elements of the mask radii <= R in its order,
        # so it returns the masked sum's float.
        radii = np.round(rng.uniform(0.2, 5.0, 400), 2)
        prof = CountingProfile(0.4, radii, 6.0)
        assert np.array_equal(prof.radii, np.sort(radii))
        for R in (0.2, 1.0, radii[7], 5.0, 6.0):
            r = prof.radii[prof.radii <= R]
            assert cesaro(prof, R) == float(np.sum(np.exp(-r) - np.exp(-R))) / R

    def test_matches_quadrature_oracle(self, rng):
        # Random small profiles: the exact form vs adaptive quadrature of
        # (1/R) int N(z, S) e^-S dS.
        for _ in range(10):
            radii = np.sort(rng.uniform(0.2, 5.0, size=rng.integers(1, 12)))
            prof = CountingProfile(0.4, radii, 6.0)
            R = rng.uniform(radii[0], 6.0)

            def integrand(S):
                return np.searchsorted(radii, S, "right") * np.exp(-S)

            val, _ = quad(integrand, 0.0, R, points=list(radii[radii <= R]),
                          limit=200)
            assert cesaro(prof, R) == pytest.approx(val / R, abs=1e-9)


class TestTargetConstant:
    def test_direct_substitution(self):
        assert target_constant(np.exp(-1.0), np.log(2.0)) == pytest.approx(
            1.0 / (2.0 * np.log(2.0)))

    def test_deg2_jensen_value(self):
        chi = chi_jensen_oracle(InnerModel.from_zeros(0, 0.5)).value
        got = target_constant(0.3, chi)
        assert got == pytest.approx(0.5 * np.log(1 / 0.3) / np.log(1 + np.sqrt(3) / 2),
                                    rel=1e-12)
        assert got == pytest.approx(0.96501, abs=5e-5)

    def test_boundary_limit_vanishes(self):
        assert target_constant(1 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            target_constant(0.3, 0.0)
        with pytest.raises(DomainError):
            target_constant(0.0, 1.0)


class TestAprioriConstant:
    def test_empty(self):
        assert apriori_constant(CountingProfile(0.5, np.empty(0), 4.0)) == 0.0

    def test_stability_between_cutoffs(self, deg2):
        c8 = apriori_constant(profile_for(deg2, 0.3, 8.0))
        c12 = apriori_constant(profile_for(deg2, 0.3, 12.0))
        assert abs(c12 - c8) / c8 <= 0.25

    def test_is_an_upper_bound(self, deg2):
        prof = profile_for(deg2, 0.3, 8.0)
        C = apriori_constant(prof)
        d0 = origin_distance(0.3)
        for R in np.arange(0.5, 8.0, 0.5):
            assert count(prof, R) <= C * np.exp(R - d0) * (1 + 1e-12)


class TestSchwarzGap:
    def test_rotation_degenerate(self):
        assert estimate_schwarz_gap(InnerModel(zeros=(0j,))) == 0.0

    def test_square_against_radial_scan(self, square):
        # The gap of z^2 is radial: an independent 1-d scan over r, whose
        # smallest drop is at d(0, z) = 1.
        d = np.linspace(1.0, 12.0, 20001)
        r = np.tanh(d / 2.0)
        oracle = np.min(d - origin_distance(r ** 2)) / 4.0
        assert estimate_schwarz_gap(square) == pytest.approx(oracle, abs=1e-15)

    def test_deg2_closed_form(self, deg2):
        # |F(-r)| = r (r + 0.5)/(1 + 0.5 r) is the Schwarz-Pick bound, so
        # the smallest drop is on that ray, at d(0, z) = 1.
        drop = 1.0 - origin_distance(abs(complex(deg2.eval(-np.tanh(0.5)))))
        est = estimate_schwarz_gap(deg2)
        assert est == pytest.approx(drop / 4.0, abs=1e-15)
        assert round(est, 6) == 0.060890

    def test_below_every_sampled_drop(self, rng):
        for _ in range(20):
            F = random_centered_blaschke(rng, dmax=8)
            d = rng.uniform(1.0, 12.0, size=20000)
            z = np.tanh(d / 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20000))
            drop = d - origin_distance(np.abs(F.eval(z)))
            assert 0 < estimate_schwarz_gap(F) <= np.min(drop) / 4.0

    def test_noncentered_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_schwarz_gap(InnerModel.from_zeros(0.5))


class TestReport:
    def test_rows_and_csv(self, deg2, tmp_path):
        chi = chi_jensen_oracle(deg2).value
        prof = profile_for(deg2, 0.3, 6.0)
        rows = counting_report(prof, [2.0, 4.0, 6.0], target_constant(0.3, chi))
        assert [r.R for r in rows] == [2.0, 4.0, 6.0]
        for r in rows:
            assert r.count_over_eR == pytest.approx(r.count * np.exp(-r.R))
            assert r.target == target_constant(0.3, chi)
        path = tmp_path / "report.csv"
        _write_csv(path, ["model deg2"], COUNT_COLUMNS,
                   ((r.R, r.count, r.count_over_eR, r.cesaro, r.target,
                     r.count_over_eR / r.target) for r in rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "# model deg2"
        assert lines[1] == "R,count,count_over_eR,cesaro,target,ratio"
        assert lines[2].startswith(f"2,{rows[0].count},")
        assert len(lines) == 5
