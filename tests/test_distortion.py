import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Composed, geodesic_curvature, random_centered_blaschke,
                      random_disk_point)
from innerlab import distortion
from innerlab.distortion import (PUNCTURE, DistortionSample,
                                 angular_derivative_criterion_scan,
                                 cumulative_orbit_distortion,
                                 distortion_at_disk,
                                 radial_distortion_integral, subadditivity_gap)
from innerlab.errors import DomainError, PreconditionError
from innerlab.hypgeo import disk_distance
from innerlab.innerfn import InnerModel, frostman_shift
from innerlab.lamination import branch_orbit, sample_interior_orbit

unit_p = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                            allow_infinity=False)


class TestSampleAlgebra:
    @given(p=unit_p)
    @settings(max_examples=300, deadline=None)
    def test_consistency_and_inequalities(self, p):
        s = DistortionSample.from_p(0.5, p)
        assert s.mu == pytest.approx(1 - abs(s.p), abs=1e-14)
        assert s.delta == pytest.approx(abs(1 - s.p), abs=1e-14)
        assert s.eta == pytest.approx(1 - s.p.real, abs=1e-14)
        assert s.alpha == pytest.approx(abs(np.angle(s.p)), abs=1e-14)
        assert s.mu <= s.eta + 1e-13
        assert s.delta <= s.alpha + s.eta + 1e-13

    def test_schwarz_violation_rejected(self):
        with pytest.raises(DomainError):
            DistortionSample.from_p(0.5, 1.5 + 0j)


class TestDiskSamples:
    def test_square_at_half(self, square):
        s = distortion_at_disk(square, 0.5)
        assert s.p == pytest.approx(0.8)
        assert (s.mu, s.delta, s.eta) == pytest.approx((0.2, 0.2, 0.2))
        assert s.alpha == 0.0

    def test_identity_all_zero(self):
        ident = InnerModel(zeros=(0j,))
        s = distortion_at_disk(ident, 0.3 + 0.4j)
        assert s.p == pytest.approx(1.0)
        assert (s.mu, s.delta, s.eta, s.alpha) == pytest.approx((0, 0, 0, 0),
                                                                abs=1e-14)

    def test_automorphism_mu_vanishes(self, rng):
        aut = InnerModel.from_zeros(0.3 - 0.2j)
        for _ in range(20):
            z = random_disk_point(rng)
            if abs(aut.eval(z)) == 0:
                continue
            s = distortion_at_disk(aut, z)
            assert s.mu < 1e-12

    def test_undefined_directions(self, square):
        with pytest.raises(PreconditionError):
            distortion_at_disk(square, 0.0)
        with pytest.raises(PreconditionError):
            distortion_at_disk(InnerModel.from_zeros(0, 0.5), 0.5)

    def test_random_schwarz_bound(self, rng):
        for _ in range(200):
            F = random_centered_blaschke(rng)
            z = random_disk_point(rng)
            if abs(F.eval(z)) == 0:
                continue
            assert abs(distortion_at_disk(F, z).p) <= 1 + 1e-12

    def test_near_boundary_stability(self, deg2):
        # The stable gap ratio keeps |p| <= 1 arbitrarily close to the
        # circle, where the naive quotient is pure cancellation.
        for gap in (1e-8, 1e-11, 1e-14):
            s = distortion_at_disk(deg2, (1 - gap) * np.exp(0.4j))
            assert 0 <= s.mu < 1e-6


class TestSubadditivity:
    def test_composition_bound(self, rng):
        for _ in range(100):
            F = random_centered_blaschke(rng)
            G = random_centered_blaschke(rng)
            z = random_disk_point(rng)
            gz = G.eval(z)
            if abs(gz) == 0 or abs(F.eval(gz)) == 0:
                continue
            assert subadditivity_gap(F, G, z) <= 1e-12

    def test_matches_composed_map(self, rng, square, deg2):
        z = 0.32 + 0.18j
        comp = Composed(square, deg2)
        s_comp = distortion_at_disk(comp, z)
        s_f = distortion_at_disk(square, deg2.eval(z))
        s_g = distortion_at_disk(deg2, z)
        assert s_comp.delta <= s_f.delta + s_g.delta + 1e-12


class TestRadialIntegrals:
    def test_eta_bounded_by_log_angular_derivative(self, square):
        bound = np.log(2.0)
        prev = 0.0
        for r_max in (0.9, 0.99, 1 - 1e-4, 1 - 1e-6):
            v = radial_distortion_integral(square, 1.0 + 0j, "eta", r_max)
            assert prev <= v + 1e-12  # monotone in r_max
            assert v <= bound + 1e-6
            prev = v
        assert prev == pytest.approx(bound, abs=1e-4)

    @pytest.mark.parametrize("quantity", ["eta", "mu"])
    @pytest.mark.parametrize("r_max", [0.5, 0.9, 1 - 1e-6])
    def test_square_closed_form(self, square, quantity, r_max):
        # z^2 on the ray to 1: p = 2r/(1 + r^2), so eta = mu = (1-r)^2/(1+r^2)
        # and int_0^r eta 2 dr/(1 - r^2) = 2 log(1 + r) - log(1 + r^2).
        v = radial_distortion_integral(square, 1.0 + 0j, quantity, r_max)
        assert v == pytest.approx(2 * np.log1p(r_max) - np.log1p(r_max ** 2),
                                  abs=1e-14)

    def test_eta_integral_is_log_angular_derivative(self):
        # For F(0) = 0, int_0^1 eta d rho = log |F'(zeta)|; the integrand is
        # O(1 - r) near the circle, so stopping at 1 - 1e-6 leaves O(1e-12).
        # Two-sided, so that mass left out near the origin shows.
        rng = np.random.default_rng(11)
        for _ in range(60):
            F = random_centered_blaschke(rng)
            theta = rng.uniform(0, 2 * np.pi)
            v = radial_distortion_integral(F, np.exp(1j * theta), "eta",
                                           1 - 1e-6)
            assert abs(v - np.log(F.boundary_deriv_modulus(theta))) <= 1e-9

    def test_automorphism_mu_integral_zero(self):
        aut = InnerModel.from_zeros(0.3)
        v = radial_distortion_integral(aut, 1.0 + 0j, "mu", 0.999)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_alpha_vanishes_for_radial_symmetry(self, square):
        v = radial_distortion_integral(square, 1.0 + 0j, "alpha", 0.999)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_ray_through_a_zero_is_punctured(self, deg2):
        # The zero at 0.5 sits on the ray to zeta = 1; the break there
        # keeps every node off it, and the bounded integrand finite.
        v = radial_distortion_integral(deg2, 1.0 + 0j, "delta", 0.99)
        assert np.isfinite(v) and v > 0

    def test_bad_quantity_rejected(self, square):
        for quantity in ("zeta", ("mu", "zeta"), ()):
            with pytest.raises(PreconditionError):
                radial_distortion_integral(square, 1.0 + 0j, quantity, 0.9)

    def test_theorem_bounded_ratio(self, rng):
        # Pilot-recorded constant for the delta integral over log |F'|.
        worst = 0.0
        for _ in range(10):
            F = random_centered_blaschke(rng, dmax=3)
            theta = rng.uniform(0, 2 * np.pi)
            v = radial_distortion_integral(F, np.exp(1j * theta), "delta",
                                           1 - 1e-6, tol=1e-8)
            denom = max(np.log(F.boundary_deriv_modulus(theta)), 0.1)
            worst = max(worst, v / denom)
        assert worst < 6.0  # pilot: max observed ~2.7


class TestVectorIntegral:
    def test_tuple_matches_single_names(self, rng):
        tol = 1e-9
        for _ in range(2):
            F = random_centered_blaschke(rng, dmax=5)
            zeta = np.exp(1j * rng.uniform(0, 2 * np.pi))
            names = ("mu", "eta", "delta", "alpha")
            vec = radial_distortion_integral(F, zeta, names, 1 - 1e-6, tol)
            assert isinstance(vec, np.ndarray) and vec.shape == (4,)
            single = [radial_distortion_integral(F, zeta, q, 1 - 1e-6, tol)
                      for q in names]
            assert all(isinstance(v, float) for v in single)
            assert np.max(np.abs(vec - single)) <= 10 * tol

    def test_one_debug_record_per_ray(self, deg2, caplog):
        # The zero at 0.5 on the ray splits it into two pieces, integrated
        # together under one tol.
        with caplog.at_level(logging.DEBUG, logger="innerlab.quadrature"):
            radial_distortion_integral(deg2, 1.0 + 0j, ("mu", "eta"), 0.99,
                                       tol=1e-9)
        records = [r for r in caplog.records
                   if r.name == "innerlab.quadrature" and r.levelno == logging.DEBUG]
        assert [r.funcName for r in records] == ["radial_distortion_integral"]
        a, b, panels, err, tol, rounds = records[0].args
        assert (a, b, tol) == (0.0, 0.99, 1e-9)
        assert 1 <= rounds <= panels and 0 <= err <= 1e-9
        assert "panels" in records[0].getMessage()

    def test_continuous_in_r_max_across_a_zero(self, deg2):
        # deg2 = z b_{0.5}: on the ray to 1, p -> -+0.5 at the zero 0.5
        # from either side (F' = 2/3, gap 3/4, |F|/F = -+1), so the
        # integrand steps from 1.5 * 8/3 = 4 to 0.5 * 8/3 = 4/3 there; and
        # p -> 0.5 at the origin (delta = 0.5, integrand 1).  Nothing is
        # excised, so the integral grows at those rates in r_max on both
        # sides of the zero and from 0.
        def delta(r_max):
            return radial_distortion_integral(deg2, 1.0 + 0j, "delta", r_max,
                                              tol=1e-12)
        for h in (1e-6, 1e-9):
            below, at, above = delta(0.5 - h), delta(0.5), delta(0.5 + h)
            assert at - below == pytest.approx(4 * h, rel=1e-4, abs=1e-13)
            assert above - at == pytest.approx(4 * h / 3, rel=1e-4, abs=1e-13)
        assert delta(5e-9) == pytest.approx(5e-9, rel=1e-6)

    @pytest.mark.parametrize("zeros, r_max", [
        ((0.0, 0.5), 0.99),
        ([1 - 2.0 ** -k for k in range(1, 7)], 1 - 1e-4)])
    def test_mu_integral_against_mpmath(self, zeros, r_max):
        # mu = 1 - |p| has a kink at each critical point of F on the ray,
        # and Rolle puts one between each pair of consecutive zeros (deg2:
        # one in (0, 0.5)).  The oracle is a 30-digit mpmath.quad over
        # [0, r_max], split at the zeros and at the critical points that
        # mpmath.findroot finds on F'.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        a = [mp.mpf(x) for x in zeros]

        def dF(r):
            # F' of the product of the factors (r - x)/(1 - x r).
            return mp.fsum((1 - x * x) / (1 - x * r) ** 2
                           * mp.fprod((r - y) / (1 - y * r)
                                      for j, y in enumerate(a) if j != k)
                           for k, x in enumerate(a))

        def mu(r):
            Fr = mp.fprod((r - x) / (1 - x * r) for x in a)
            return (1 - abs(dF(r)) * (1 - r * r) / (1 - Fr * Fr)) * 2 / (1 - r * r)

        crit = [mp.findroot(dF, (x, y), solver="anderson")
                for x, y in zip(a, a[1:])]
        ends = sorted({0, *(x for x in a if 0 < x < r_max), *crit, r_max})
        exact = mp.quad(mu, ends)
        F = InnerModel.from_zeros(*zeros)
        v = radial_distortion_integral(F, 1.0 + 0j, "mu", r_max, tol=1e-9)
        assert abs(v - float(exact)) <= 1e-9

    @pytest.mark.parametrize("K", [16, 20, 24])
    def test_long_truncation_ray_meets_tol(self, K, caplog):
        # K + 1 pieces share the ray's panels: with one cap of MAX_PANELS
        # for the whole ray, K = 20 and 24 stop at it and miss tol.
        F = InnerModel.from_zeros(*[1 - 2.0 ** -k for k in range(1, K + 1)])
        names = ("mu", "eta", "delta", "alpha")
        with caplog.at_level(logging.INFO, logger="innerlab.quadrature"):
            vec = radial_distortion_integral(F, 1.0 + 0j, names, 1 - 1e-6,
                                             tol=1e-9)
        assert not [r for r in caplog.records if r.name == "innerlab.quadrature"
                    and r.levelno >= logging.INFO]
        ref = radial_distortion_integral(F, 1.0 + 0j, names, 1 - 1e-6,
                                         tol=1e-12)
        assert np.max(np.abs(vec - ref)) <= 1e-9


class TestCriticalBreaks:
    def test_deg2_break_brackets_the_critical_point(self, deg2):
        # F = z b_{0.5}: F' = 0 at 2 - sqrt(3) on the ray to 1, and F = 0
        # at 0.5.
        lo, hi, zero = distortion._breaks(deg2, 1.0 + 0j, 0.99)
        assert lo <= 2 - np.sqrt(3) <= hi and hi - lo < 1e-15
        assert zero == 0.5
        assert distortion._breaks(deg2, 1.0 + 0j, 0.2) == []
        assert distortion._breaks(deg2, -1.0 + 0j, 0.99) == []

    def test_frostman_shift_breaks(self, deg2, caplog):
        # F_a with a = F(0.7) vanishes at 0.7 on the ray to 1, and its
        # derivative at F's critical point 2 - sqrt(3).  Broken there, the
        # ray takes one round and meets tol 1e-12; bisecting towards the
        # step instead took 40 rounds and stopped at 1.7e-11.
        G = frostman_shift(deg2, deg2.eval(0.7))
        lo, hi, zero = distortion._breaks(G, 1.0 + 0j, 0.99)
        assert lo <= 2 - np.sqrt(3) <= hi
        assert zero == pytest.approx(0.7, abs=1e-15)
        with caplog.at_level(logging.DEBUG, logger="innerlab.quadrature"):
            radial_distortion_integral(G, 1.0 + 0j, "delta", 0.99, tol=1e-12)
        [record] = [r for r in caplog.records if r.name == "innerlab.quadrature"]
        a, b, panels, err, tol, rounds = record.args
        assert err <= tol == 1e-12 and rounds == 1

    @pytest.mark.parametrize("F, zeta, r_max, zeros", [
        (InnerModel.atom_map(0.0, 1.0), np.exp(1j), 1 - 1e-6, []),
        (InnerModel(zeros=(0j, 0.4), atoms=((2.0, 0.3),)), 1.0 + 0j, 0.99, [0.4]),
        (frostman_shift(InnerModel.from_zeros(0, 0.5), 0.3 - 0.2j),
         np.exp(0.7j), 0.99, []),
        (InnerModel.from_zeros(0.3), 1.0 + 0j, 0.99, [0.3]),
        (InnerModel.power_map(2), 1.0 + 0j, 1 - 1e-6, []),
        (InnerModel.power_map(3), 1.0 + 0j, 1 - 1e-6, []),
        (InnerModel.from_zeros(*(0.5 * np.exp(0.5j * np.pi * j)
                                 for j in range(4))), 1.0 + 0j, 0.99, [0.5])],
        ids=["atom", "atom-and-zeros", "frostman", "degree1", "z2", "z3",
             "B(z^4)"])
    def test_no_break_keeps_the_pieces(self, F, zeta, r_max, zeros):
        # These rays have no critical point to break at, or (B(z^4), whose
        # triple critical point at 0 keeps the solve from resting, so that
        # chi_jensen_oracle raises) no trustworthy one: nothing is raised,
        # and the ray is broken only at its zeros (the origin is an end,
        # not a break).
        assert distortion._breaks(F, zeta, r_max) == zeros
        vec = radial_distortion_integral(F, zeta, ("mu", "eta", "delta",
                                                   "alpha"), r_max)
        assert np.isfinite(vec).all()


def scalar_cumulative(F, coords, N):
    """The per-coordinate loop that `cumulative_orbit_distortion`'s one
    array call replaced, kept as its reference."""
    total = 0.0
    for n in range(1, N + 1):
        z = complex(coords[n])
        try:
            total += distortion_at_disk(F, z).delta
        except PreconditionError:
            if z == 0:
                z = PUNCTURE + 0j
            lo = distortion_at_disk(F, z * (1.0 - PUNCTURE)).delta
            hi = distortion_at_disk(F, z * (1.0 + PUNCTURE)).delta
            total += 0.5 * (lo + hi)
    return total


class TestCumulative:
    def test_matches_scalar_loop(self, deg2, rng, caplog):
        # A backward orbit of deg2 through 0 (F(0) = 0) and through its
        # zero 0.5 (F(0.5) = 0): both coordinates take the two-sided
        # perturbation, and the rest of the orbit the plain sample.
        orb = np.concatenate(([0j, 0j], branch_orbit(
            deg2, 0.5, 40, lambda roots: int(np.argmax(roots.real)))))
        with caplog.at_level(logging.INFO, logger="innerlab.distortion"):
            total = cumulative_orbit_distortion(deg2, orb, 42)
        [record] = caplog.records
        assert list(record.args[0]) == [-1, -2]
        assert total == pytest.approx(scalar_cumulative(deg2, orb, 42), rel=1e-14)
        F = random_centered_blaschke(rng)
        orb = sample_interior_orbit(F, 0.3 + 0.2j, 60, seed=4)
        assert cumulative_orbit_distortion(F, orb, 60) == pytest.approx(
            scalar_cumulative(F, orb, 60), rel=1e-14)

    def test_zero_terms(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3, 5, seed=1)
        assert cumulative_orbit_distortion(deg2, orb, 0) == 0.0

    def test_automorphism_formula_unrolled(self):
        aut = InnerModel.from_zeros(0.4)
        orb = branch_orbit(aut, 0.2 + 0.1j, 8, lambda roots: 0)
        total = cumulative_orbit_distortion(aut, orb, 5)
        expect = sum(distortion_at_disk(aut, orb[n]).delta
                     for n in range(1, 6))
        assert total == pytest.approx(expect, abs=1e-14)

    def test_tail_is_small(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3 + 0.2j, 400, seed=9)
        c200 = cumulative_orbit_distortion(deg2, orb, 200)
        c400 = cumulative_orbit_distortion(deg2, orb, 400)
        assert 0 <= c400 - c200 < 0.01

    def test_skips_undefined_directions(self, deg2):
        # Orbit through the zero 0.5 of the model: F(0.5) = 0 makes the
        # direction undefined at that coordinate.
        orb = branch_orbit(deg2, 0.5, 3,
                           lambda roots: int(np.argmax(roots.real)))
        total = cumulative_orbit_distortion(deg2, orb, 3)
        assert np.isfinite(total)

    def test_short_orbit_and_negative_n_rejected(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3, 5, seed=1)
        with pytest.raises(PreconditionError, match="need 7 coordinates"):
            cumulative_orbit_distortion(deg2, orb, 6)
        with pytest.raises(PreconditionError):
            cumulative_orbit_distortion(deg2, orb, -1)


class TestStabilityAndCurvature:
    def test_mu_stability_pilot_constant(self, rng):
        # e^{-K d} mu(a) <= mu(b) <= e^{K d} mu(a); pilot K ~ 2.
        worst = 0.0
        for _ in range(300):
            F = random_centered_blaschke(rng)
            a = random_disk_point(rng, rmin=0.1)
            b = a + 0.04 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            if abs(b) >= 0.93:
                continue
            d = disk_distance(a, b)
            if not 0 < d <= 0.5:
                continue
            try:
                ma = distortion_at_disk(F, a).mu
                mb = distortion_at_disk(F, b).mu
            except PreconditionError:
                continue
            if min(ma, mb) > 1e-12:
                worst = max(worst, abs(np.log(mb) - np.log(ma)) / d)
        assert worst < 3.0  # pilot: ~2.0

    def test_curvature_bounded_by_mu(self, rng):
        # min(1, curvature of the image of a geodesic) <= C mu; pilot C ~ 3.4.
        worst = 0.0
        h = 1e-3
        ts = h * np.arange(-2.0, 3.0)
        for _ in range(300):
            F = random_centered_blaschke(rng)
            z = random_disk_point(rng, rmin=0.05)
            try:
                s = distortion_at_disk(F, z)
            except PreconditionError:
                continue
            u = z / abs(z)
            pts = u * np.tanh(np.arctanh(abs(z)) + ts)
            img = np.asarray(F.eval(pts))
            try:
                k = geodesic_curvature(img, 2, params=ts)
            except Exception:
                continue
            if s.mu > 1e-12:
                worst = max(worst, min(1.0, k) / s.mu)
        assert worst < 5.0


class TestScan:
    def test_identity_row(self):
        ident = InnerModel(zeros=(0j,))
        rows = angular_derivative_criterion_scan([ident], 0.0, [0.9])
        assert rows[0].integral_mu == 0.0
        assert rows[0].log_angular_derivative == pytest.approx(0.0)

    def test_small_powers_finite(self):
        fam = [InnerModel.power_map(2), InnerModel.power_map(3)]
        rows = angular_derivative_criterion_scan(fam, 0.0, [1 - 1e-4])
        for row, d in zip(rows, (2, 3)):
            assert np.isfinite(row.integral_mu)
            assert row.log_angular_derivative == pytest.approx(np.log(d))

    def test_truncation_mu_meets_tol(self):
        # Each truncation's zeros cut the ray into K + 1 pieces; the scan's
        # mu-integral at tol = 1e-9 must be within 1e-9 of a tol = 1e-12
        # reference.
        r_max = 1 - 1e-4
        for K in (6, 12):
            F = InnerModel.from_zeros(*[1 - 2.0 ** -k for k in range(1, K + 1)])
            row, = angular_derivative_criterion_scan([F], 1.0 + 0j, [r_max],
                                                     tol=1e-9)
            ref = radial_distortion_integral(F, 1.0 + 0j, "mu", r_max, tol=1e-12)
            assert abs(row.integral_mu - ref) <= 1e-9, K

    def test_truncation_divergence(self):
        fam = [InnerModel.from_zeros(*[1 - 2.0 ** -k for k in range(1, K + 1)])
               for K in (6, 12)]
        rows = angular_derivative_criterion_scan(fam, 1.0 + 0j, [1 - 1e-4])
        assert rows[1].integral_mu - rows[0].integral_mu > 1.0

    @pytest.mark.parametrize("K, r_max", [(12, 1 - 1e-6), (8, 0.93333),
                                          (6, 1 - 1e-4), (12, 1 - 1e-4),
                                          (16, 1 - 1e-6), (20, 1 - 1e-6)])
    def test_truncation_alpha_matches_closed_form(self, K, r_max, caplog):
        # On these rays alpha is a step function.  At (8, 0.93333) a step
        # hides between a panel end and its outermost node at two levels,
        # which only the interpolant-jump error term catches (without it
        # the row is off by 7.7e-5 and reported converged).  With a break
        # on each step, every piece is smooth: the error must be within
        # the achieved error, plus, at each step, one float spacing of its
        # weight (a step can be put only on a float, and the quadrature
        # cannot see where within one spacing it lies).  A break placed
        # next to a step, not on it, is off by orders of magnitude more.
        zeros = [1 - 2.0 ** -k for k in range(1, K + 1)]
        F = InnerModel.from_zeros(*zeros)
        with caplog.at_level(logging.DEBUG, logger="innerlab.quadrature"):
            row, = angular_derivative_criterion_scan([F], 1.0 + 0j, [r_max])
        [record] = [r for r in caplog.records if r.name == "innerlab.quadrature"]
        achieved, rounds = record.args[3], record.args[5]
        exact, crit = alpha_on_truncation_ray(zeros, r_max)
        crit = crit[crit < r_max]
        floor = np.sum(np.pi * np.spacing(crit) * 2 / (1 - crit * crit))
        assert abs(row.integral_alpha - exact) <= achieved + floor
        assert rounds < UNBROKEN_ROUNDS[K, r_max]
        if (K, r_max) == (12, 1 - 1e-6):
            assert abs(row.integral_alpha - 16.0268562162065) <= 1e-8


# The rounds of these rays' integrals before they were broken at F's
# critical points.
UNBROKEN_ROUNDS = {(12, 1 - 1e-6): 60, (8, 0.93333): 50, (6, 1 - 1e-4): 55,
                   (12, 1 - 1e-4): 60, (16, 1 - 1e-6): 62, (20, 1 - 1e-6): 63}


def alpha_on_truncation_ray(zeros, r_max):
    """Closed form of the alpha-integral along [0, r_max] for increasing
    real zeros a_1 < ... < a_K in (0, 1), and the critical points of F, as
    floats.

    On the real ray p is real with the sign of F'/F, so alpha is pi where
    F'/F < 0 and 0 elsewhere; the integral is pi times the hyperbolic length
    2 artanh(y) - 2 artanh(x) of those arcs.  F'/F = sum of
    (1 - a^2)/((r - a)(1 - a r)) is negative on (0, a_1) and, in each gap
    (a_k, a_{k+1}), beyond the one critical point there (Rolle gives K - 1
    of them, all the critical points), found by mpmath at 30 digits, which
    also sums the lengths: in doubles, a bisection on the sign of F'/F
    missed the critical points near the circle by an ulp, which moved the
    integral by up to 1.4e-10 at K = 20.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    a = [mp.mpf(x) for x in zeros]

    def dlog(r):
        return mp.fsum((1 - x * x) / ((r - x) * (1 - x * r)) for x in a)

    crit = [mp.findroot(dlog, (x + (y - x) * 1e-20, y - (y - x) * 1e-20),
                        solver="anderson") for x, y in zip(a, a[1:])]
    assert all(x < c < y for x, c, y in zip(a, crit, a[1:]))
    starts = [mp.mpf(0), *crit]
    total = mp.fsum(2 * mp.atanh(min(y, r_max)) - 2 * mp.atanh(min(x, r_max))
                    for x, y in zip(starts, a))
    return float(mp.pi * total), np.array([float(c) for c in crit])
