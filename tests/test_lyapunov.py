import logging
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_degenerate, polar, random_centered_blaschke
from innerlab.errors import NumericalError, PreconditionError
from innerlab import lyapunov
from innerlab.innerfn import BLOCK_ENTRIES, InnerModel, _boundary_value
from innerlab.lyapunov import (LANES, LyapunovEstimate, chi_birkhoff,
                               chi_jensen_oracle, chi_quadrature)

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

    def test_atom_breaks_closed_form(self):
        # One atom: chi = log(2w).  Two antipodal atoms of weight w:
        # |F'| = 2w/sin^2(theta), whose log-mean is log(8w).  The reported
        # error must cover the true error, log singularities included.
        cases = [(((0.0, w),), np.log(2 * w)) for w in (0.5, 1.0, 2.0)]
        cases += [(((0.0, w), (np.pi, w)), np.log(8 * w)) for w in (0.5, 2.0)]
        for atoms, exact in cases:
            est = chi_quadrature(InnerModel(zeros=(), atoms=atoms))
            assert abs(est.value - exact) <= est.error <= 1e-9, atoms

    @pytest.mark.parametrize("zeros, atoms", [
        ((0j, 0.5), ((1.0, 0.7),)),
        ((0j,), ((0.3, 0.4), (2.0, 0.8), (4.5, 0.2))),
    ])
    def test_atoms_against_mpmath(self, zeros, atoms):
        F = InnerModel(zeros=zeros, atoms=atoms)
        est = chi_quadrature(F, 1e-10)
        assert abs(est.value - _mp_chi(F)) <= est.error <= 1e-9

    def test_close_atoms_raise(self):
        F = InnerModel(atoms=((1.0, 0.5), (1.0 + 1e-11, 0.5)))
        with pytest.raises(NumericalError, match="not finite"):
            chi_quadrature(F)

    def test_duplicate_atom_angles_merge(self):
        # 2 (w/2)/g^2 twice sums to 2w/g^2 exactly, so the integrands and
        # the estimates agree bit for bit without zeros, and to the
        # reported error with one.
        twice = chi_quadrature(InnerModel(atoms=((1.0, 0.5), (1.0, 0.5))))
        assert twice == chi_quadrature(InnerModel(atoms=((1.0, 1.0),)))
        twice = chi_quadrature(InnerModel(zeros=(0j,),
                                          atoms=((1.0, 0.5), (1.0, 0.5))))
        merged = chi_quadrature(InnerModel(zeros=(0j,), atoms=((1.0, 1.0),)))
        assert abs(twice.value - merged.value) <= twice.error + merged.error

    def test_tol_below_atom_floor(self):
        # The requested tol is floored at 1e-12 on atom models.
        est = chi_quadrature(InnerModel.atom_map(0.0, 0.7), 1e-15)
        assert np.isfinite(est.value)
        assert abs(est.value - np.log(1.4)) <= est.error <= 1e-11
        assert est == chi_quadrature(InnerModel.atom_map(0.0, 0.7), 1e-12)

    def test_one_debug_record(self, caplog):
        # One integral over one turn, with breaks at the two atoms.
        F = InnerModel(zeros=(0j,), atoms=((0.0, 0.5), (np.pi, 0.5)))
        tol = 1e-9
        with caplog.at_level(logging.DEBUG, logger="innerlab.quadrature"):
            chi_quadrature(F, tol)
        records = [r for r in caplog.records
                   if r.name == "innerlab.quadrature" and r.levelno == logging.DEBUG]
        assert [r.funcName for r in records] == ["chi_quadrature"]
        a, b, panels, err, atol, rounds = records[0].args
        assert (a, b) == (0.0, 2 * np.pi)
        assert atol == tol * 2 * np.pi
        assert 1 <= rounds <= panels and 0 <= err <= atol
        assert "panels" in records[0].getMessage()


def _mp_chi(F):
    """(1/2pi) int log |F'| at 30 digits by mpmath's tanh-sinh, with the
    atom angles as breaks and |e^{it} - zeta_k|^2 = 4 sin^2((t - ang)/2),
    which does not cancel near an atom."""
    with mpmath.workdps(30):
        zeros = [mpmath.mpc(a.real, a.imag) for a in F.zeros]

        def log_modulus(t):
            z = mpmath.expj(t)
            s = sum(((1 - abs(a) ** 2) / abs(z - a) ** 2 for a in zeros),
                    mpmath.mpf(0))
            s += sum(2 * w / (4 * mpmath.sin((t - ang) / 2) ** 2)
                     for ang, w in F.atoms)
            return mpmath.log(s)

        angles = [mpmath.mpf(a) for a in sorted({a for a, _ in F.atoms})]
        total = mpmath.quad(log_modulus, [*angles, angles[0] + 2 * mpmath.pi])
        return float(total / (2 * mpmath.pi))


# chi of the truncation F_K = z prod_{k <= K} b_{1 - 2^-k}, whose zeros
# crowd toward 1: `_mp_truncation_chi` at 70 digits, pinned to 64.
TRUNCATION_CHI = {
    8: "1.163406950060873774726451714389300442045368975061232254286323750",
    12: "1.169176919101049413011056719628524002584260957917116769555634408",
    16: "1.169625862518707017371074722296373004532849711052487668485475662",
    20: "1.169659487271725445566743648736594266307468536509282176045958028",
}


def truncation(K):
    return InnerModel.from_zeros(0, *[1 - 2.0 ** -k for k in range(1, K + 1)])


def _mp_truncation_chi(K, dps):
    """chi(F_K) at dps digits by mpmath's tanh-sinh: |F_K'| is even in t,
    so (1/pi) int_0^pi log(1 + sum_k (1 - a_k^2)/|e^{it} - a_k|^2), with
    |e^{it} - a|^2 = (1 - a)^2 + 4a sin^2(t/2) and breaks at t = 2^-j,
    the scales of the peaks."""
    with mpmath.workdps(dps + 10):
        a = [1 - mpmath.mpf(2) ** -k for k in range(1, K + 1)]

        def log_modulus(t):
            s2 = mpmath.sin(t / 2) ** 2
            return mpmath.log(1 + sum((1 - x * x) / ((1 - x) ** 2 + 4 * x * s2)
                                      for x in a))

        breaks = [mpmath.mpf(2) ** -j for j in range(K + 2, -1, -1)]
        return mpmath.quad(log_modulus, [0, *breaks, mpmath.pi]) / mpmath.pi


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

    def test_high_degree_against_mpmath_polyroots(self):
        """Degrees 8, 10 and 12: Jensen's formula on F' = N/Q^2, N = P'Q -
        PQ', with every root of N from mpmath.polyroots at 50 digits."""

        def mul(f, g):
            out = [mpmath.mpc(0)] * (len(f) + len(g) - 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    out[i + j] += x * y
            return out

        rng = np.random.default_rng(5)
        worst = 0.0
        for degree in (8, 10, 12):
            zeros = [0j]
            while len(zeros) < degree:
                w = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)
                if abs(w) < 0.9:
                    zeros.append(w)
            F = InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()),
                           zeros=tuple(zeros))
            with mpmath.workdps(50):
                # Coefficients, lowest degree first, of P = prod (z - a) and
                # Q = prod (1 - conj(a) z).  F is P/Q times a unimodular
                # constant and Q(0) = 1, so |F'(0)| = |N(0)|.  The origin
                # zero leaves Q of degree d - 1, and N of degree 2d - 2.
                P, Q = [mpmath.mpc(1)], [mpmath.mpc(1)]
                for a in map(mpmath.mpc, zeros):
                    P, Q = mul(P, [-a, 1]), mul(Q, [1, -mpmath.conj(a)])
                dP = [j * c for j, c in enumerate(P)][1:]
                dQ = [j * c for j, c in enumerate(Q)][1:]
                N = [x - y for x, y in zip(mul(dP, Q), mul(P, dQ))][:2 * degree - 1]
                crit = mpmath.polyroots(N[::-1], maxsteps=200, extraprec=200)
                inside = [c for c in crit if abs(c) < 1]
                assert len(inside) == degree - 1
                chi = mpmath.log(abs(N[0])) - sum(mpmath.log(abs(c)) for c in inside)
            worst = max(worst, abs(chi_jensen_oracle(F).value - float(chi)))
        assert worst < 1e-10

    def test_truncation_pins_are_the_integral(self):
        with mpmath.workdps(70):
            gap = _mp_truncation_chi(8, 60) - mpmath.mpf(TRUNCATION_CHI[8])
            assert abs(gap) < mpmath.mpf(10) ** -60
        assert round(float(TRUNCATION_CHI[8]), 14) == 1.16340695006087
        assert round(float(TRUNCATION_CHI[16]), 14) == 1.16962586251871

    @pytest.mark.parametrize("K", sorted(TRUNCATION_CHI))
    def test_clustered_truncations_against_mpmath(self, K):
        # np.roots on the expanded numerator P'Q - PQ' lost these critical
        # points: it read 1.3969 at K = 8 and 6.3719 at K = 16, and raised
        # at K = 12.
        est = chi_jensen_oracle(truncation(K))
        assert abs(est.value - float(TRUNCATION_CHI[K])) <= 1e-12
        assert est.error == 1e-12

    @pytest.mark.parametrize("kind", ["clustered", "repeated"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_near_degenerate_agrees_with_quadrature(self, kind, data):
        F, _ = data.draw(near_degenerate(kind))
        assert abs(chi_jensen_oracle(F).value
                   - chi_quadrature(F, 1e-12).value) <= 1e-10

    def test_non_centered_repeated_zeros_agree_with_quadrature(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            distinct = [polar(rng.uniform(0.05, 0.9), rng.uniform())
                        for _ in range(rng.integers(1, 5))]
            k = rng.integers(1, 5, len(distinct))
            k[0] = max(k[0], 2)
            F = InnerModel(rotation=polar(1.0, rng.uniform()),
                           zeros=tuple(np.repeat(distinct, k)))
            assert abs(chi_jensen_oracle(F).value
                       - chi_quadrature(F, 1e-12).value) <= 1e-10

    @pytest.mark.parametrize("k", range(2, 8))
    def test_symmetric_non_centered(self, k):
        # F = B(z^k) with B = b_{r^k} up to a rotation: F'(0) = 0 to order
        # k - 1, and chi = log k + log(1 - r^(2k)).  The origin is a
        # multiple critical point from k = 3 on: its roots are known only to
        # about eps^(1/(k - 1)), which the error reports, and past the bound
        # the oracle raises.
        F = InnerModel.from_zeros(*(polar(0.5, j / k) for j in range(k)))
        exact = np.log(k) + np.log1p(-0.25 ** k)
        if k >= 4:
            with pytest.raises(NumericalError, match="critical points"):
                chi_jensen_oracle(F)
            return
        est = chi_jensen_oracle(F)
        assert abs(est.value - exact) <= est.error <= lyapunov._JENSEN_MAX_ERROR
        assert est.error == 1e-12 if k == 2 else est.error > 1e-12

    @pytest.mark.parametrize("at_rest", [False, True], ids=["moving", "claims-rest"])
    def test_loop_left_at_its_start_raises(self, monkeypatch, at_rest):
        # The shared Aberth loop returns its starting ring untouched, saying
        # it is still moving or claiming to be at rest.
        F = random_centered_blaschke(np.random.default_rng(3))
        monkeypatch.setattr(lyapunov, "_aberth_polish",
                            lambda newton, w, max_iter: at_rest)
        with pytest.raises(NumericalError, match="critical points") as info:
            chi_jensen_oracle(F)
        assert info.value.context["model"] == F
        assert ("moving" in str(info.value)) != at_rest

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

    def test_standard_error_calibrated(self):
        # The lane SE is the estimator's spread: over 40 random models the
        # deviations from Jensen's chi, in SEs, stay within 4 and have rms
        # near 1 (a pilot over 1,600 such models read rms 1.013, max 4.03;
        # forty draws put the rms within about +-0.11 of 1).
        rng = np.random.default_rng(0)
        ratios = []
        for i in range(40):
            F = random_centered_blaschke(rng)
            est = chi_birkhoff(F, 0.7, 50_000, seed=i)
            ratios.append((est.value - chi_jensen_oracle(F).value) / est.error)
        ratios = np.abs(ratios)
        assert np.max(ratios) <= 4.0
        assert 0.7 <= np.sqrt(np.mean(ratios ** 2)) <= 1.3

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
    """sum (1 - |a|^2)/|1 - conj(a) z|^2 over the zeros in order, at the
    points z as they are: |F'(z)| for z on the circle."""
    total = np.zeros(z.shape)
    for a in F.zeros:
        total = total + (1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2
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
                              _reference_boundary_modulus(F, z / np.abs(z)))

    @pytest.mark.parametrize("origin_at", [0, 3])
    def test_orbit_matches_factor_loop(self, origin_at):
        F = self._model(origin_at)
        n, lanes = 16 * LANES, LANES
        rng = np.random.default_rng(5)
        z = np.concatenate(([1.0 + 0j],
                            np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=lanes - 1))))
        sums = np.zeros(lanes)
        for _ in range(n // lanes):
            sums += np.log(_reference_boundary_modulus(F, z))
            w = _reference_eval(F, z)
            z = w / np.abs(w)
        ref = float(np.sum(sums) / n)
        assert chi_birkhoff(F, 0.0, n=n, seed=5).value == ref


def _reference_birkhoff(F, zeta0, n, seed=0):
    """`chi_birkhoff` as the per-step loop: at each step, |F'| of the lanes,
    its log added to the sums of the lanes with steps left, then one step
    of F and renormalization."""
    lanes = min(LANES, n)
    rng = np.random.default_rng(seed)
    starts = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=lanes - 1))
    z = np.concatenate(([_boundary_value(zeta0)], starts))
    steps = np.full(lanes, n // lanes)
    steps[: n % lanes] += 1
    sums = np.zeros(lanes)
    for k in range(steps[0]):
        modulus = F._blocked(F._boundary_block, z, float)
        sums += np.where(steps > k, np.log(modulus), 0.0)
        w = F.eval(z)
        z = w / np.abs(w)
    value = float(np.sum(sums) / n)
    if lanes == 1:
        return LyapunovEstimate(value, "birkhoff", np.inf)
    stderr = float(np.std(sums / steps, ddof=1) / np.sqrt(lanes))
    return LyapunovEstimate(value, "birkhoff", stderr)


def _seeded_model(d):
    """A rotated degree-d Blaschke product with a zero at the origin and
    d - 1 zeros drawn from rng d."""
    rng = np.random.default_rng(d)
    zeros = 0.9 * np.sqrt(rng.uniform(size=d - 1)) \
        * np.exp(2j * np.pi * rng.uniform(size=d - 1))
    return InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()),
                      zeros=(0j, *zeros))


CHUNK_STEPS = BLOCK_ENTRIES // LANES


class TestBirkhoffChunks:
    """The orbit-first loop (chunks of BLOCK_ENTRIES // lanes steps)
    against the per-step loop, bit for bit."""

    @pytest.mark.parametrize("model", [
        *(pytest.param(("origin_at", i), id=f"origin_at{i}") for i in (0, 3)),
        *(pytest.param(("degree", d), id=f"degree{d}") for d in range(2, 7))])
    @pytest.mark.parametrize("n", [
        1, 5, 37, LANES * CHUNK_STEPS - 1, LANES * CHUNK_STEPS,
        LANES * CHUNK_STEPS + 1, 3 * LANES * CHUNK_STEPS + 7])
    def test_matches_per_step_loop(self, model, n):
        kind, arg = model
        F = (TestBirkhoffDeterminism._model(arg) if kind == "origin_at"
             else _seeded_model(arg))
        for zeta0, seed in ((0.7, 0), (1.0 + 0j, 5)):
            assert chi_birkhoff(F, zeta0, n, seed=seed) \
                == _reference_birkhoff(F, zeta0, n, seed=seed)

    def test_memory_set_by_the_chunk(self, deg2):
        # The whole orbit at n = 10**6 would be 16 MB of complex points.
        tracemalloc.start()
        try:
            chi_birkhoff(deg2, 0.7, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_one_debug_record(self, deg2, caplog):
        n = LANES * CHUNK_STEPS + 1
        with caplog.at_level(logging.DEBUG, logger="innerlab.lyapunov"):
            chi_birkhoff(deg2, 0.7, n)
        [record] = [r for r in caplog.records if r.name == "innerlab.lyapunov"]
        assert record.levelno == logging.DEBUG
        assert record.msg == lyapunov._BIRKHOFF_RECORD
        lanes, fewest, most, chunks, orbit_s, kernel_s = record.args
        assert (lanes, fewest, most, chunks) == (LANES, CHUNK_STEPS, CHUNK_STEPS + 1, 2)
        assert orbit_s > 0 and kernel_s > 0


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
