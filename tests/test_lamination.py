import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_centered_blaschke
from innerlab import lamination
from innerlab.errors import (BudgetError, DomainError, NumericalError,
                             PreconditionError)
from innerlab.hypgeo import origin_distance
from innerlab.innerfn import InnerModel
from innerlab.lamination import (AnnularBox, bad_times_pow2, branch_orbit,
                                 exponential_map, fixedpoint_orbit_point,
                                 geodesic_intertwining_check,
                                 gh_commutation_discrepancy, h_action_limit,
                                 log_boundary_gaps, radial_shadowing_stat,
                                 sample_interior_orbit, shadowing_simulation,
                                 solenoid_orbits, total_mass_check,
                                 xi_box_mass)
from innerlab.lyapunov import chi_jensen_oracle
from innerlab.preimage import preimages_of_batch


def seeded_degree6():
    """The first degree-6 model of a seeded random stream."""
    rng = np.random.default_rng(0)
    while True:
        F = random_centered_blaschke(rng)
        if F.degree == 6:
            return F


def per_step_orbit(F, z0, n, rng):
    """Reference: the one-orbit-at-a-time walk, one root solve and one
    `rng.choice` per step, with the weights log1p(-x g)/log1p(-x) of
    x = (1 - |z|)(1 + |z|) and the gap ratios g of the preimages, and g
    itself (1/|F'| on the circle) where x is not positive; the roots are
    sorted as `_walk` sorts them."""
    pts = [complex(z0)]
    for _ in range(n):
        roots = lamination._sort_roots(preimages_of_batch(F, [pts[-1]]))[0]
        x = (1.0 - abs(pts[-1])) * (1.0 + abs(pts[-1]))
        g = F.gap_ratio(roots)
        w = np.log1p(-x * g) / np.log1p(-x) if x > 0 else g
        pts.append(complex(roots[rng.choice(len(roots), p=w / np.sum(w))]))
    return np.array(pts)


def per_step_solenoid_orbit(F, n, seed):
    """Reference: `per_step_orbit` from one uniform start angle; the roots
    are taken as solved, never put back on the circle."""
    rng = np.random.default_rng(seed)
    return per_step_orbit(F, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), n, rng)


def vectorized_marginal(F, m, depth, seed):
    """Reference: the u_{-depth} marginal over m independent boundary
    orbits, by counting cumulative weights below one uniform per row, over
    the roots sorted as `_walk` sorts them."""
    rng = np.random.default_rng(seed)
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
    for _ in range(depth):
        roots = lamination._sort_roots(preimages_of_batch(F, u))
        w = 1.0 / F.boundary_deriv_modulus(roots)
        w = w / np.sum(w, axis=1, keepdims=True)
        picks = (np.cumsum(w, axis=1) < rng.uniform(size=(m, 1))).sum(axis=1)
        u = roots[np.arange(m), picks]
    return u


class TestInverseOrbit:
    def test_residual_invariant(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3 + 0.2j, 60, seed=3)
        assert orb.shape == (61,)
        assert np.max(np.abs(deg2.eval(orb[1:]) - orb[:-1])) < 1e-10

    def test_schwarz_monotonicity(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3, 80, seed=4)
        mods = np.abs(orb)
        started = False
        for n in range(80):
            if origin_distance(min(mods[n], 1 - 1e-17)) >= 1.0:
                started = True
            if started:
                assert mods[n + 1] >= mods[n] - 1e-12

    def test_zero_base_rejected(self, deg2):
        with pytest.raises(PreconditionError):
            sample_interior_orbit(deg2, 0.0, 5)

    def test_reproducible_from_seed(self, deg2):
        a = sample_interior_orbit(deg2, 0.3, 30, seed=11)
        b = sample_interior_orbit(deg2, 0.3, 30, seed=11)
        assert np.array_equal(a, b)

    def test_log_boundary_gaps(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3, 120, seed=5)
        lh = log_boundary_gaps(deg2, orb)
        assert lh.shape == orb.shape
        # Strictly decreasing (backward orbits approach the circle) and
        # consistent with the representable prefix.
        for n in range(0, 20):
            assert lh[n] == pytest.approx(np.log(1 - abs(orb[n])), rel=1e-9)
        assert lh[-1] < -60

    @pytest.mark.parametrize("model", ["deg2", "degree6"])
    def test_walk_matches_per_step_reference(self, deg2, model):
        F = deg2 if model == "deg2" else seeded_degree6()
        for seed in (0, 3):
            assert np.array_equal(
                sample_interior_orbit(F, 0.3 + 0.2j, 150, seed),
                per_step_orbit(F, 0.3 + 0.2j, 150, np.random.default_rng(seed)))
            assert np.array_equal(solenoid_orbits(F, 150, paths=1, seed=seed)[0],
                                  per_step_solenoid_orbit(F, 150, seed))

    def test_weights_exact_where_coordinates_collapse(self, deg2):
        # Past 1 - |z| ~ 1e-16 the heights log(1/|w|) of the coordinates
        # are lost in doubles; the gap-ratio weights still sum to 1 at
        # every step, and the log gaps keep falling.
        orb = sample_interior_orbit(deg2, 0.3, 150, seed=2)
        roots = preimages_of_batch(deg2, orb[:-1])
        heights = np.log(1.0 / np.abs(roots))
        assert np.any(np.sum(heights, axis=1) < 1e-12)
        p = lamination._branch_weights(deg2, orb[:-1], roots)
        assert np.max(np.abs(np.sum(p, axis=1) - 1.0)) < 1e-14
        assert np.all(np.diff(log_boundary_gaps(deg2, orb)) < 0)
        assert np.max(np.abs(deg2.eval(orb[1:]) - orb[:-1])) < 1e-10

    def test_tiny_start(self, deg2):
        # Near the origin the weights take logs of |z|^2 and |w|^2, not of
        # 1 - (1 - |w|^2), so a start far inside the disk keeps its digits.
        for z0 in (1e-4, 1e-9, 1e-200):
            orb = sample_interior_orbit(deg2, z0, 20, seed=1)
            assert np.max(np.abs(deg2.eval(orb[1:]) - orb[:-1])) < 1e-10

    def test_non_centered_model_rejected(self):
        # The heights of the preimages sum to the height of z only when
        # F(0) = 0.
        with pytest.raises(PreconditionError, match="centered"):
            sample_interior_orbit(InnerModel.from_zeros(0.5, 0.2j), 0.3, 5)

    def test_negative_length_rejected(self, deg2):
        with pytest.raises(PreconditionError):
            sample_interior_orbit(deg2, 0.3, -1)
        with pytest.raises(PreconditionError):
            solenoid_orbits(deg2, -1)


class TestDeepOrbitOracle:
    """Log gaps and branch weights along a seeded deg2 orbit from 0.3, 160
    generations deep (1 - |z| ~ e^-115, far past double precision),
    against a 120-digit mpmath orbit that takes the same branches."""

    def test_gaps_and_weights_against_mpmath(self, deg2):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 120
        orb = sample_interior_orbit(deg2, 0.3, 160, seed=6)
        roots = preimages_of_batch(deg2, orb[:-1])
        p = lamination._branch_weights(deg2, orb[:-1], roots)
        lh = log_boundary_gaps(deg2, orb)
        z = mp.mpc(0.3)
        gap_err = weight_err = 0.0
        for k in range(160):
            # deg2(w) = w (1/2 - w)/(1 - w/2) = z: w^2 - (1 + z) w / 2 + z = 0.
            b = (1 + z) / 2
            disc = mp.sqrt(b * b - 4 * z)
            exact = [(b + disc) / 2, (b - disc) / 2]
            for j, w in enumerate(roots[k]):
                near = min(exact, key=lambda e: abs(e - mp.mpc(w.real, w.imag)))
                weight_err = max(weight_err, abs(
                    float(mp.log(abs(near)) / mp.log(abs(z))) - p[k, j]))
            z = min(exact, key=lambda e: abs(e - mp.mpc(orb[k + 1].real,
                                                         orb[k + 1].imag)))
            ref = mp.log(1 - abs(z))
            gap_err = max(gap_err, abs(float((lh[k + 1] - ref) / ref)))
        assert float(mp.log(1 - abs(z))) < -110
        assert gap_err <= 1e-14
        assert weight_err <= 1e-14


class TestSolenoidSampler:
    def test_weights_sum_to_one(self, deg2):
        u = np.exp(1j * np.linspace(0.1, 5.9, 7))
        roots = preimages_of_batch(deg2, u)
        roots = roots / np.abs(roots)
        w = 1.0 / deg2.boundary_deriv_modulus(roots)
        assert np.max(np.abs(np.sum(w, axis=1) - 1.0)) < 1e-10

    def test_power_map_weights_uniform(self, square):
        pre = preimages_of_batch(square, [np.exp(0.7j)])[0]
        w = [1 / square.boundary_deriv_modulus(r) for r in pre]
        assert w == pytest.approx([0.5, 0.5])

    def test_orbit_stays_on_circle(self, deg2):
        orb = solenoid_orbits(deg2, 40, seed=2)
        assert orb.shape == (1, 41)
        assert np.max(np.abs(np.abs(orb) - 1)) < 1e-14

    @pytest.mark.parametrize("model", ["deg2", "degree6"])
    def test_long_orbits_do_not_drift(self, deg2, model):
        # The walk takes the roots as solved, never putting them back on
        # the circle: 2,000 generations of 64 paths stay within 1e-15.
        F = deg2 if model == "deg2" else seeded_degree6()
        orbs = solenoid_orbits(F, 2000, paths=64, seed=1)
        assert np.max(np.abs(np.abs(orbs) - 1.0)) <= 1e-15

    def test_zero_length_orbit(self, deg2):
        assert solenoid_orbits(deg2, 0, seed=3).shape == (1, 1)

    def test_marginal_uniformity_ks(self, deg2):
        n = 2 * 10 ** 4
        u = solenoid_orbits(deg2, 6, paths=n, seed=11)[:, -1]
        ang = np.sort(np.angle(u) % (2 * np.pi)) / (2 * np.pi)
        ks = np.max(np.maximum(np.arange(1, n + 1) / n - ang,
                               ang - np.arange(0, n) / n))
        assert ks < 1.63 / np.sqrt(n)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_paths_match_vectorized_marginal(self, deg2, seed):
        u = solenoid_orbits(deg2, 6, paths=20000, seed=seed)[:, -1]
        assert np.array_equal(u, vectorized_marginal(deg2, 20000, 6, seed))

    def test_rows_are_independent_orbits(self, deg2):
        orbs = solenoid_orbits(deg2, 10, paths=5, seed=4)
        assert orbs.shape == (5, 11)
        assert np.max(np.abs(deg2.eval(orbs[:, 1:]) - orbs[:, :-1])) < 1e-10
        assert len(set(orbs[:, 0])) == 5

    @pytest.mark.parametrize("paths", [1, 4])
    def test_transfer_weight_guard(self, deg2, monkeypatch, paths):
        # Doubling the gap ratios doubles the transfer weights on the
        # circle (to the last bits, where |z| is an ulp off 1) and breaks
        # the height identity inside.
        ratio = InnerModel.gap_ratio
        monkeypatch.setattr(InnerModel, "gap_ratio",
                            lambda self, z: 2.0 * ratio(self, z))
        with pytest.raises(NumericalError,
                           match=r"branch weights sum to 2\.0(0{12,}\d)?,"):
            solenoid_orbits(deg2, 3, paths=paths, seed=1)
        with pytest.raises(NumericalError, match="branch weights sum to"):
            sample_interior_orbit(deg2, 0.9, 3, seed=paths)

    def test_rotation_rejected(self):
        with pytest.raises(PreconditionError):
            solenoid_orbits(InnerModel(zeros=(0j,)), 3)


class TestTransverseWeights:
    """The cylinder weights log(1/|w|) of the preimages w of z, whose
    normalized values are the branch probabilities of
    `sample_interior_orbit`."""

    def test_power_map_equal_split(self, square):
        z = 0.4 + 0.1j
        w = np.log(1 / np.abs(preimages_of_batch(square, [z])[0]))
        assert w == pytest.approx(np.full(2, np.log(1 / abs(z)) / 2), abs=1e-12)

    def test_kolmogorov_consistency(self, deg2):
        levels = [np.array([0.3 + 0j])]
        for _ in range(3):
            levels.append(preimages_of_batch(deg2, levels[-1]).reshape(-1))
        assert len(levels[3]) == 8
        for parent, child in zip(levels[:-1], levels[1:]):
            w_parent = np.log(1 / np.abs(parent))
            w_child = np.log(1 / np.abs(child)).reshape(len(parent), -1)
            assert np.max(np.abs(w_child.sum(axis=1) - w_parent)) < 1e-8
        assert np.sum(np.log(1 / np.abs(levels[3]))) == pytest.approx(
            np.log(1 / 0.3), abs=1e-9)


class TestExponentialMap:
    def test_zeroth_approximant_exact(self, square):
        const = np.ones(5, dtype=complex)
        assert exponential_map(square, const, 0.25, 0) == pytest.approx(0.75)

    def test_fixed_point_closed_form(self, square):
        const = np.ones(40, dtype=complex)
        assert abs(exponential_map(square, const, 0.5, 30) - np.exp(-0.5)) < 1e-6

    def test_small_t_slope(self, square):
        orb = solenoid_orbits(square, 35, seed=5)[0]
        u0 = orb[0]
        errs = []
        for t in (1e-2, 1e-3):
            errs.append(abs(exponential_map(square, orb, t, 30) - (1 - t) * u0) / t)
        # |E - (1-t) u0| = o(t): the normalized error drops with t.
        assert errs[1] < errs[0] / 2

    def test_cap_enforced(self, square):
        const = np.ones(5, dtype=complex)
        with pytest.raises(DomainError):
            exponential_map(square, const, 1.5, 3)

    def test_cauchy_decay_before_roundoff(self, deg2):
        orb = solenoid_orbits(deg2, 30, seed=8)[0]
        vals = [exponential_map(deg2, orb, 0.5, n) for n in range(10, 24)]
        incs = np.abs(np.diff(vals))
        # Geometric decay in the truncation-dominated range: per-step
        # ratios fluctuate with |F'| along the orbit, so the pilot pins a
        # 2x-slack 0.9^k envelope plus the mean ratio (the roundoff floor
        # takes over near n ~ 25).
        envelope = 2.0 * incs[0] * 0.9 ** np.arange(len(incs))
        assert np.all(incs <= envelope)
        mean_ratio = (incs[-1] / incs[0]) ** (1.0 / (len(incs) - 1))
        assert mean_ratio < 0.9

    def test_intertwining_truncation_and_rounding_against_mpmath(self, square):
        """Criterion 10's discrepancy on z^2, split into the n = 30
        truncation error (a closed form, checked at 50 digits) and the
        rounding of the double computation (bounded below)."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        n, k, t, s = 30, 1, 0.3, -0.5
        x = mp.exp(s) * t

        def dist(a, b):
            return 2 * mp.atanh(abs((a - b) / (1 - mp.conj(b) * a)))

        def exp_map(u, tt):
            # F^n(u_{-n} (1 - tt/|(F^n)'(u_{-n})|)) with F^n(w) = w^(2^n).
            deriv = mp.fprod(2 * abs(v) for v in u[1:n + 1])
            return (u[n] * (1 - tt / deriv)) ** 2 ** n

        # On |u| = 1, |(F^m)'(u_{-m})| = 2^m and F^m(u_{-m} w) = u_0 w^(2^m),
        # so the two sides are u_0 (1 - x/2^n)^(2^n) and
        # u_0 (1 - x/2^(n+k))^(2^(n+k)), x = e^s t, whatever the orbit.
        truncation = dist((1 - x / 2 ** n) ** 2 ** n,
                          (1 - x / 2 ** (n + k)) ** 2 ** (n + k))
        eps = np.finfo(float).eps
        for seed in (1, 2, 3):
            orb = solenoid_orbits(square, 45, seed=seed)[0]
            # The 50-digit orbit through orb[0]/|orb[0]|, taking at each
            # step the square root nearest the double coordinate.
            u = [mp.mpc(orb[0]) / abs(mp.mpc(orb[0]))]
            for w in orb[1:]:
                r = mp.sqrt(u[-1])
                u.append(r if abs(r - w) < abs(r + w) else -r)
            side_a = exp_map(u, x)
            side_b = exp_map(u[k:], x / (2 * abs(u[1]))) ** 2 ** k
            exact = dist(side_a, side_b)
            assert abs(exact - truncation) < 1e-30
            # Rounding, to first order.  The double start point of a side
            # with m squarings has relative error at most rho_0 = (the
            # orbit's error) + 3 eps: one rounding in 1 - t/D and one in the
            # product, D's own error scaled by t/D < 1e-9.  Each squaring
            # (at most two complex products, exact origin factors) doubles
            # the relative error and adds at most 4 eps, so after m steps it
            # is at most 2^m (rho_0 + 4 eps).  The hyperbolic density
            # 2/(1 - r^2) bounds the distance's change, with r just above
            # both sides' moduli; disk_distance's own rounding is below
            # 1e-14 here.
            rho_0 = max(float(abs(mp.mpc(w) - v)) for w, v in zip(orb, u)) + 3 * eps
            r = float(max(abs(side_a), abs(side_b))) + 1e-4
            rounding = 2 / (1 - r * r) * (abs(side_a) * 2 ** n + abs(
                side_b) * 2 ** (n + k)) * (rho_0 + 4 * eps) + 1e-14
            got = geodesic_intertwining_check(square, orb, t, s, n)
            assert abs(got - float(exact)) <= rounding
        assert float(truncation) == pytest.approx(4.2133e-11, rel=1e-4)

    def test_interior_orbit_rejected(self, deg2):
        orb = sample_interior_orbit(deg2, 0.3, 10, seed=1)
        with pytest.raises(PreconditionError):
            exponential_map(deg2, orb, 0.5, 10)

    def test_short_orbit_rejected(self, square):
        const = np.ones(5, dtype=complex)
        with pytest.raises(PreconditionError, match="need 6 coordinates"):
            exponential_map(square, const, 0.5, 5)
        with pytest.raises(PreconditionError, match="need 6 coordinates"):
            geodesic_intertwining_check(square, const, 0.3, -0.5, 4)
        with pytest.raises(PreconditionError, match="nonnegative"):
            exponential_map(square, const, 0.5, -1)


class TestIntertwining:
    def test_zero_time_exact(self, square):
        orb = solenoid_orbits(square, 40, seed=5)[0]
        assert geodesic_intertwining_check(square, orb, 0.3, 0.0, 30) == 0.0

    def test_square_random_orbits(self, square):
        for seed in (1, 2):
            orb = solenoid_orbits(square, 45, seed=seed)[0]
            assert geodesic_intertwining_check(square, orb, 0.3, -0.5, 30) < 1e-3

    def test_fixed_point_both_sides_closed_form(self, square):
        # On the constant orbit both sides equal e^{-e^s t}.
        const = np.ones(45, dtype=complex)
        t, s = 0.3, -0.5
        d = geodesic_intertwining_check(square, const, t, s, 30)
        direct = exponential_map(square, const, np.exp(s) * t, 30)
        assert abs(direct - np.exp(-np.exp(s) * t)) < 1e-6
        assert d < 1e-9

    def test_cap_check(self, square):
        const = np.ones(45, dtype=complex)
        with pytest.raises(DomainError):
            geodesic_intertwining_check(square, const, 0.5, 1.0, 30)


class TestGHCommutation:
    def test_h_action_matches_leaf_algebra(self):
        # L(z_tau, w) lands at parameter Re(tau) Im(w) + i (Im tau
        # - Re(tau) Re(w)) on the z^d fixed-point leaf.
        d, tau, w = 2, 0.4 + 0.1j, 0.7 + 1.2j
        F = InnerModel.power_map(d)
        coords = np.array([fixedpoint_orbit_point(tau, d, j) for j in range(30)])
        got = h_action_limit(F, coords, w, 24)
        expect_param = tau.real * w.imag + 1j * (tau.imag - tau.real * w.real)
        assert abs(got - np.exp(-expect_param)) < 1e-7

    @pytest.mark.parametrize("d", [2, 3])
    def test_commutation_relation(self, d):
        disc = gh_commutation_discrepancy(d, 0.4 + 0.1j, s=0.3, t=0.25)
        assert disc < 1e-6


def per_depth_xi_mass(F, region, depth, grid):
    """Reference: the box mass at one depth, rebuilding the preimage tree
    from the top for each quadrature grid."""
    def integrand(z):
        if depth == 0:
            return np.log(1.0 / np.abs(z))
        pts = z.reshape(-1)
        chain = np.ones(len(pts))
        for _ in range(depth):
            roots = preimages_of_batch(F, pts)
            dmod = np.abs(F.deriv(roots))
            chain = (chain[:, None] * dmod).reshape(-1)
            pts = roots.reshape(-1)
        m = len(z.reshape(-1))
        per = len(pts) // m
        base = np.repeat(z.reshape(-1), per)
        hyp_norm = chain * (1.0 - np.abs(pts) ** 2) / (1.0 - np.abs(base) ** 2)
        terms = np.log(1.0 / np.abs(pts)) / hyp_norm ** 2
        return terms.reshape(m, per).sum(axis=1).reshape(z.shape)

    def value_at(nr, nt):
        xr, wr = np.polynomial.legendre.leggauss(nr)
        xt, wt = np.polynomial.legendre.leggauss(nt)
        r = 0.5 * (region.r_hi - region.r_lo) * (xr + 1.0) + region.r_lo
        th = 0.5 * (region.theta_hi - region.theta_lo) * (xt + 1.0) + region.theta_lo
        jac = 0.25 * (region.r_hi - region.r_lo) * (region.theta_hi - region.theta_lo)
        R, TH = np.meshgrid(r, th, indexing="ij")
        vals = integrand(R * np.exp(1j * TH)) * 4.0 * R / (1.0 - R ** 2) ** 2
        return jac * float(np.einsum("i,j,ij->", wr, wt, vals)) / (2.0 * np.pi)

    coarse = value_at(grid[0], grid[1])
    fine = value_at(grid[0] + grid[0] // 2 + 1, grid[1] + grid[1] // 2 + 1)
    return fine, abs(fine - coarse)


class TestXiBoxMass:
    def test_depth_zero_analytic(self, deg2):
        from scipy.integrate import quad
        box = AnnularBox(0.5, 0.7, 0.3, 1.1)
        [est] = xi_box_mass(deg2, box, 0, grid=(16, 16))
        val, _ = quad(lambda r: np.log(1 / r) * 4 * r / (1 - r * r) ** 2,
                      0.5, 0.7)
        expect = (1.1 - 0.3) * val / (2 * np.pi)
        assert est.value == pytest.approx(expect, rel=1e-10)

    def test_square_closed_form_all_depths(self, square):
        # For z^2 the 2^n depth-n preimages of r e^{i theta} have modulus
        # r^{1/2^n}, so with t = r^{2/2^n} the preimage sum times the
        # hyperbolic area density is 4 log(1/r) t / (4^n r (1 - t)^2).
        from scipy.integrate import quad
        box = AnnularBox(0.5, 0.7, 0.3, 1.1)
        ests = xi_box_mass(square, box, 6, grid=(16, 16))
        assert [e.depth for e in ests] == list(range(7))
        for n, est in enumerate(ests):
            def radial(r, n=n):
                t = r ** (2.0 / 2 ** n)
                return 4.0 * np.log(1.0 / r) * t / (4.0 ** n * r * (1.0 - t) ** 2)
            val, _ = quad(radial, 0.5, 0.7, epsabs=0.0, epsrel=1e-13)
            expect = (1.1 - 0.3) * val / (2 * np.pi)
            assert est.value == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_one_walk_matches_per_depth_reference(self, deg2):
        F3 = random_centered_blaschke(np.random.default_rng(3), dmax=3)
        assert F3.degree == 3
        box = AnnularBox(0.5, 0.7, 0.3, 1.1)
        for F, grid in ((deg2, (10, 12)), (F3, (8, 8))):
            ests = xi_box_mass(F, box, 5, grid=grid)
            assert [e.depth for e in ests] == list(range(6))
            for est in ests:
                value, error = per_depth_xi_mass(F, box, est.depth, grid)
                assert (est.value, est.error) == (value, error)

    def test_chunks_change_no_digit(self, deg2, monkeypatch):
        # Each base point's sums are its own.  The coarse (1, 5) grid is
        # split 1+1+1+1+1, 2+2+1 and 3+2 points, and the fine (2, 8) grid
        # likewise; both give the one-chunk walk's estimates bit for bit.
        F3 = random_centered_blaschke(np.random.default_rng(3), dmax=3)
        box = AnnularBox(0.5, 0.7, 0.3, 1.1)
        for F in (deg2, F3):
            leaves = F.degree ** 4
            monkeypatch.setattr(lamination, "XI_CHUNK_LEAVES", 16 * leaves)
            whole = xi_box_mass(F, box, 4, grid=(1, 5))
            for per in (1, 2, 3):
                monkeypatch.setattr(lamination, "XI_CHUNK_LEAVES", per * leaves + 1)
                assert xi_box_mass(F, box, 4, grid=(1, 5)) == whole, (F.zeros, per)

    def test_memory_set_by_the_chunk(self, deg2):
        # At depth 8 the two grids hold 256 (576 + 1,369) leaves, about
        # 31 MiB for the walk at once.
        tracemalloc.start()
        try:
            xi_box_mass(deg2, AnnularBox(0.5, 0.7, 0.0, 1.0), 8, (24, 24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_budget_partial_estimates(self, deg2, monkeypatch):
        # grid (4, 4) refines to (7, 7): 65 leaves per level of both
        # grids, so 2^n * 65 <= 64 * 10 holds for n <= 3 only.  Counting
        # the coarse grid alone would admit n = 5.
        monkeypatch.setattr(lamination, "TREE_BUDGET", 10)
        box = AnnularBox(0.5, 0.7, 0.3, 1.1)
        with pytest.raises(BudgetError) as err:
            xi_box_mass(deg2, box, 6, grid=(4, 4))
        assert "depth 4" in str(err.value)
        assert err.value.partial == xi_box_mass(deg2, box, 3, grid=(4, 4))
        with pytest.raises(BudgetError) as err:
            xi_box_mass(deg2, box, 0, grid=(40, 40))
        assert err.value.partial == []

    def test_depth_zero_over_budget_builds_no_grid(self, deg2, monkeypatch):
        # A 20,000-node side is a 20,000 x 20,000 eigenproblem in leggauss:
        # the budget is checked before any grid is built.
        def no_grid(n):
            raise AssertionError(f"built a {n}-node grid")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_grid)
        with pytest.raises(BudgetError, match="depth 0") as err:
            xi_box_mass(deg2, AnnularBox(0.5, 0.7, 0, 1), 0, grid=(20000, 20000))
        assert err.value.partial == []

    def test_monotone_in_depth(self, deg2):
        box = AnnularBox(0.5, 0.7, 0.3, 1.1)
        masses = xi_box_mass(deg2, box, 4, grid=(16, 16))
        for lo, hi in zip(masses[:-1], masses[1:]):
            assert hi.value >= lo.value - 10 * (lo.error + hi.error) - 1e-12

    def test_thin_box_comparability(self, deg2):
        box = AnnularBox(0.985, 0.995, 0.2, 0.9)
        est = xi_box_mass(deg2, box, 6, grid=(12, 12))[-1]
        # (1/2pi) int_A dA/(1 - |z|), with int r dr/(1 - r) = -log(1 - r) - r.
        radial = np.log1p(-box.r_lo) - np.log1p(-box.r_hi) - (box.r_hi - box.r_lo)
        ref = (box.theta_hi - box.theta_lo) * radial / (2 * np.pi)
        assert 0.5 <= est.value / ref <= 2.0

    def test_box_validation(self):
        with pytest.raises(PreconditionError):
            AnnularBox(0.0, 0.5, 0.0, 1.0)
        with pytest.raises(PreconditionError):
            AnnularBox(0.5, 0.4, 0.0, 1.0)


def row_edges(F, r0):
    """The 17 u-edges of `total_mass_check`'s rows and its (u_lo, L)."""
    r1 = lamination._fundamental_outer_radius(F, r0)
    u_lo, u_hi = math.log(1.0 - r1), math.log(1.0 - r0)
    L = u_hi - u_lo
    return u_lo + L * np.arange(17) / 16, u_lo, L


def per_sample_total_mass(F, r0, samples, seed):
    """Reference: the stratified Monte Carlo that draws every sample in
    full and tests |F(z)| < r0 at each.  Returns the per-stratum means and
    variances of the means, and the result."""
    _, u_lo, L = row_edges(F, r0)
    su, sth = 16, 16
    seeds = np.random.SeedSequence(seed).spawn(su * sth)
    per = max(samples // (su * sth), 16)
    means = np.empty(su * sth)
    variances = np.empty(su * sth)
    cell = 0
    for iu in range(su):
        for it in range(sth):
            rng = np.random.default_rng(seeds[cell])
            u = u_lo + L * (iu + rng.uniform(size=per)) / su
            th = 2.0 * np.pi * (it + rng.uniform(size=per)) / sth
            r = 1.0 - np.exp(u)
            z = r * np.exp(1j * th)
            inside = np.abs(F.eval(z)) < r0
            f = np.where(
                inside,
                L * np.log(1.0 / r) * 4.0 * r / ((1.0 - r) * (1.0 + r) ** 2),
                0.0)
            means[cell] = np.mean(f)
            variances[cell] = np.var(f, ddof=1) / per
            cell += 1
    mass = float(np.mean(means))
    se = float(np.sqrt(np.sum(variances))) / (su * sth)
    return means, variances, lamination.TotalMassResult(
        mass, se, chi_jensen_oracle(F).value, r0, per * su * sth)


def total_mass_models():
    """Seeded models of degree 2 to 7, then repeated zeros, then zeros
    1e-3, 1e-6 and 1e-9 from the circle."""
    rng = np.random.default_rng(22)
    models = []
    for d in range(2, 8):
        F = random_centered_blaschke(rng, dmax=7, rmax=0.95)
        while F.degree != d:
            F = random_centered_blaschke(rng, dmax=7, rmax=0.95)
        models.append(F)
    return models + [
        InnerModel.from_zeros(0, 0.4 + 0.3j, 0.4 + 0.3j),
        InnerModel.from_zeros(0, 0, 0, -0.6j),
        InnerModel.from_zeros(0, (1 - 1e-3) * np.exp(1j)),
        InnerModel.from_zeros(0, 0.5, (1 - 1e-6) * np.exp(2.5j)),
        InnerModel.from_zeros(0, -(1 - 1e-9), 0.3j),
    ]


def cell_counts(caplog):
    """(outside, inside, evaluated, points) of the one captured
    `total_mass_check` record."""
    [record] = [r for r in caplog.records if r.msg == lamination._CELLS_RECORD]
    return record.args


@st.composite
def model_and_cell(draw):
    """A centered model and a polar cell (r_lo, r_hi, th_lo, th_hi) built
    around its first other zero a: holding arg a, arg a + pi or a itself,
    touching theta = 0 or 2 pi, or anywhere."""
    def zero():
        gap = draw(st.one_of(st.floats(0.05, 1.0),
                             st.integers(3, 9).map(lambda k: 10.0 ** -k)))
        return (1.0 - gap) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))

    zeros = [zero() for _ in range(draw(st.integers(1, 5)))]
    m, phi = abs(zeros[0]), np.angle(zeros[0]) % (2 * np.pi)
    kind = draw(st.sampled_from(["arg", "antipode", "zero", "start", "end", "free"]))
    width = draw(st.floats(1e-3, 1.5))
    r_lo = draw(st.floats(0.01, 0.99))
    r_hi = r_lo + (1.0 - r_lo) * 10.0 ** draw(st.floats(-6.0, -1e-3))
    if kind == "zero":
        s = draw(st.floats(1e-3, 0.999))
        r_lo, r_hi = m * (1.0 - s), m + (1.0 - m) * s
    if kind in ("arg", "antipode", "zero"):
        centre = (phi + np.pi) % (2 * np.pi) if kind == "antipode" else phi
        th_lo = centre - width * draw(st.floats(0.0, 1.0))
    elif kind == "start":
        th_lo = 0.0
    elif kind == "end":
        th_lo = 2 * np.pi - width
    else:
        th_lo = draw(st.floats(0.0, 2 * np.pi - width))
    F = InnerModel(zeros=(0j, *zeros))
    return F, (r_lo, r_hi, th_lo, th_lo + width)


class TestTotalMass:
    def test_power_map_close_to_log2(self, square):
        res = total_mass_check(square, 0.99, samples=2 * 10 ** 5, seed=1)
        assert abs(res.mass - np.log(2)) / np.log(2) < 0.05
        assert res.chi_ref == pytest.approx(np.log(2), abs=1e-10)

    def test_deg2_close_to_chi(self, deg2):
        res = total_mass_check(deg2, 0.99, samples=2 * 10 ** 5, seed=2)
        chi = chi_jensen_oracle(deg2).value
        assert abs(res.mass - chi) / chi < 0.05

    def test_r0_trend(self, deg2):
        chi = chi_jensen_oracle(deg2).value
        errs = [abs(total_mass_check(deg2, r0, samples=2 * 10 ** 5, seed=3).mass
                    - chi) for r0 in (0.9, 0.99)]
        assert errs[1] <= errs[0] + 3e-3

    def test_deterministic_given_seed(self, square):
        a = total_mass_check(square, 0.95, samples=10 ** 4, seed=7)
        b = total_mass_check(square, 0.95, samples=10 ** 4, seed=7)
        assert a == b

    @pytest.mark.parametrize("model", ["square", "deg2"])
    def test_seed_changes_the_mass(self, square, deg2, model):
        # On z^2 all but 16 strata are wholly inside and integrated in
        # closed form; the seed moves the estimate through the 16 evaluated
        # strata only.
        F = square if model == "square" else deg2
        a = total_mass_check(F, 0.95, samples=10 ** 4, seed=0)
        b = total_mass_check(F, 0.95, samples=10 ** 4, seed=1)
        assert a.mass != b.mass

    # r0 = 1 - 1e-9 puts the rows where a naive log(1 - r^2) loses its
    # digits.
    R0S = (0.5, 0.9, 0.99, 1.0 - 1e-9)

    def test_sampled_strata_bit_identical_to_per_sample_loop(self, caplog):
        kinds = np.zeros(3, dtype=int)
        for F in total_mass_models():
            for r0 in self.R0S:
                for seed in (0, 909):
                    caplog.clear()
                    with caplog.at_level(logging.DEBUG, logger="innerlab.lamination"):
                        res = total_mass_check(F, r0, samples=8192, seed=seed)
                    means, variances, inside, _ = lamination._strata(F, r0, 8192, seed)
                    ref_means, ref_variances, ref = per_sample_total_mass(
                        F, r0, 8192, seed)
                    case = (F.zeros, r0, seed)
                    assert np.array_equal(means[~inside], ref_means[~inside]), case
                    assert np.array_equal(variances[~inside],
                                          ref_variances[~inside]), case
                    assert np.all(variances[inside] == 0.0), case
                    # Integrating the inside strata exactly removes their
                    # noise and nothing else.
                    assert abs(res.mass - ref.mass) <= 4.0 * ref.stderr, case
                    assert res.stderr <= ref.stderr, case
                    assert (res.chi_ref, res.r0, res.samples) == \
                        (ref.chi_ref, ref.r0, ref.samples), case
                    kinds += cell_counts(caplog)[:3]
        # The cases reach strata outside, inside and evaluated.
        assert np.all(kinds > 0)

    def test_inside_strata_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40

        def integrand(u):
            r = -mp.expm1(u)
            return mp.log(1 / r) * 4 * r / ((1 - r) * (1 + r) ** 2)

        rows = 0
        for F in total_mass_models():
            for r0 in self.R0S:
                u_edge, _, _ = row_edges(F, r0)
                exact = {}
                for seed in (0, 909):
                    means, _, inside, _ = lamination._strata(F, r0, 8192, seed)
                    for cell in np.flatnonzero(inside):
                        iu = cell // 16
                        if iu not in exact:
                            exact[iu] = 16 * mp.quad(
                                integrand, [float(u_edge[iu]), float(u_edge[iu + 1])],
                                method="gauss-legendre")
                        assert abs(means[cell] - exact[iu]) <= 1e-13 * exact[iu], \
                            (F.zeros, r0, cell)
                rows += len(exact)
        assert rows > 100

    @pytest.mark.parametrize("side", ["hi", "lo"])
    def test_margin_sign_at_a_stratum_bound(self, deg2, caplog, side):
        # r0 is placed by bisection so that r0^2 lies strictly between a
        # stratum's bound and that bound moved by delta toward r0^2: between
        # hi and hi (1 + delta), or between lo (1 - delta) and lo.  The
        # stratum is then neither inside nor outside but evaluated; a
        # margin of the wrong sign would close it in exact form.
        cell, a, b = (97, 0.98, 0.985) if side == "hi" else (82, 0.96, 0.97)
        eps = np.finfo(float).eps

        def bounds(r0):
            r_edge = 1.0 - np.exp(row_edges(deg2, r0)[0])
            th_edge = 2.0 * np.pi * np.arange(17) / 16
            lo, hi, scale = lamination._cell_bounds(
                deg2, r_edge[1:, None], r_edge[:-1, None], th_edge[:-1], th_edge[1:])
            return lo.ravel(), hi.ravel(), 128.0 * eps * scale.ravel() / r0 ** 2

        def gap(r0):
            return bounds(r0)[side == "hi"][cell] - r0 * r0

        assert gap(a) > 0 > gap(b)
        while 0.5 * (a + b) not in (a, b):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if gap(mid) > 0 else (a, mid)
        r0 = b if side == "hi" else a
        lo, hi, delta = bounds(r0)
        if side == "hi":
            assert hi[cell] < r0 * r0 < hi[cell] * (1.0 + delta[cell])
        else:
            assert lo[cell] * (1.0 - delta[cell]) < r0 * r0 < lo[cell]
        outside = lo > r0 * r0 * (1.0 + delta)
        inside = hi < r0 * r0 * (1.0 - delta)
        assert not outside[cell] and not inside[cell]
        with caplog.at_level(logging.DEBUG, logger="innerlab.lamination"):
            total_mass_check(deg2, r0, samples=4096, seed=0)
        assert cell_counts(caplog)[:3] == (
            outside.sum(), inside.sum(), 256 - outside.sum() - inside.sum())

    @given(case=model_and_cell(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cell_bounds_enclose_every_point(self, case, seed):
        F, (r_lo, r_hi, th_lo, th_hi) = case
        lo, hi, _ = lamination._cell_bounds(F, r_lo, r_hi, th_lo, th_hi)
        rng = np.random.default_rng(seed)
        z = rng.uniform(r_lo, r_hi, 2000) * np.exp(1j * rng.uniform(th_lo, th_hi, 2000))
        f2 = np.abs(F.eval(z)) ** 2
        assert np.all(lo <= f2) and np.all(f2 <= hi)

    def test_cell_counts_are_logged(self, deg2, square, caplog):
        counts = []
        for F in (deg2, square):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="innerlab.lamination"):
                total_mass_check(F, 0.99, samples=10 ** 4, seed=0)
            counts.append(cell_counts(caplog))
        for outside, inside, evaluated, points in counts:
            assert outside + inside + evaluated == 256
            assert points == evaluated * (10 ** 4 // 256)
        assert counts[0][2] <= 64
        assert counts[1][0] == 0


class TestRadialShadowing:
    def test_positive_axis_orbit_is_the_ray(self, square):
        orb = branch_orbit(square, 0.4, 60,
                           lambda roots: int(np.argmax(roots.real)))
        st = radial_shadowing_stat(square, orb)
        assert st.value < 1e-6
        assert st.conclusive
        assert st.limit_angle == pytest.approx(0.0, abs=1e-12)

    def test_random_orbit_trend(self, deg2):
        stats = {}
        for N in (100, 400):
            orb = sample_interior_orbit(deg2, 0.3, N, seed=17)
            stats[N] = radial_shadowing_stat(deg2, orb).value
        assert stats[400] <= stats[100] + 0.02

    def test_constant_zero_orbit_rejected(self, square):
        with pytest.raises(PreconditionError):
            radial_shadowing_stat(square, np.zeros(3, dtype=complex))

    def test_memory_does_not_grow_with_offsets(self, square):
        # The positive-axis orbit of z^2 in closed form, 0.4^(2^-n), 5,000
        # generations deep: one (801, n) broadcast of the offsets would
        # peak near 180 MB.
        orb = 0.4 ** (2.0 ** -np.arange(5001)) + 0j
        tracemalloc.start()
        try:
            st = radial_shadowing_stat(square, orb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.value < 1e-6
        assert peak < 8e6


class TestShadowingSimulation:
    def test_no_bad_times_exact(self):
        run = shadowing_simulation([], 100.0, start=2 + 1j)
        assert run.zeta == 2.0
        assert run.final_avg == 0.0

    def test_density_zero_bad_times(self):
        run = shadowing_simulation(bad_times_pow2(10 ** 4), 10 ** 4,
                                   start=2 + 1j)
        assert run.final_avg < 0.05

    def test_density_one_negative_control(self):
        run = shadowing_simulation([(0.0, 10 ** 4)], 10 ** 4,
                                   adversary="right", start=2 + 1j)
        assert run.final_avg > 0.5
        assert run.zeta == 2.0 + 10 ** 4

    def test_single_bad_interval_closed_form(self):
        # u = 0 after the bad interval, 7.5 - t on it, 4.5 e^(t - 3) before.
        run = shadowing_simulation([(3.0, 7.5)], 20.0, adversary="right",
                                   start=2 + 1j)
        t = run.times
        u = np.where(t >= 7.5, 0.0,
                     np.where(t >= 3.0, 7.5 - t, 4.5 * np.exp(t - 3.0)))
        dist = np.minimum(1.0, np.abs(u))
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (dist[1:] + dist[:-1])
                                               * np.diff(t))))
        avg = np.divide(cum, t, out=np.zeros_like(cum), where=t > 0)
        np.testing.assert_allclose(run.avg_curve, avg, rtol=0, atol=1e-12)
        assert run.zeta == 2.0 + 4.5 * math.exp(-3.0)

    def test_all_bad_up_right_landing(self):
        run = shadowing_simulation([(0.0, 100.0)], 100.0, start=2 + 1j)
        assert run.zeta == pytest.approx(1.0 + math.exp(100.0 / math.sqrt(2.0)),
                                         rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad, T", [([(0.0, 10 ** 4)], 10 ** 4),
                                        ([(0.0, 1e3), (1001.0, 2e3)], 3e3)])
    def test_up_right_no_overflow_warning(self, bad, T):
        # The second case enters a long bad interval with u at the clamp.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = shadowing_simulation(bad, T, start=2 + 1j)
        assert math.isfinite(run.final_avg)

    def test_step_underflow_guard(self):
        with pytest.raises(NumericalError):
            shadowing_simulation([(5.0, 5.0 + 1e-13)], 10.0)

    def test_pow2_intervals_have_vanishing_density(self):
        T = 10 ** 4
        bad = bad_times_pow2(T)
        total = sum(b - a for a, b in bad)
        assert total / T < 0.02

    def test_unknown_adversary(self):
        with pytest.raises(PreconditionError):
            shadowing_simulation([], 10.0, adversary="spiral")


def test_sample_backward_orbit_helper(deg2):
    orb = solenoid_orbits(deg2, 12, seed=4)[0]
    assert orb.shape == (13,)
    assert np.max(np.abs(np.abs(orb) - 1)) < 1e-14
