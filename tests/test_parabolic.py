import logging
import math

import numpy as np
import pytest

from conftest import aberth_records
from innerlab import _roots, parabolic
from innerlab._roots import aberth_batch
from innerlab.counting import CountingProfile, cesaro, count, counting_report
from innerlab.errors import NumericalError, PreconditionError
from innerlab.innerfn import InnerModel
from innerlab.lamination import _sort_roots
from innerlab.parabolic import (HalfPlaneInner, chi_ell, enumerate_strip,
                                height_classify, hp_preimages_batch)
from innerlab.preimage import preimages_of_batch


@pytest.fixture(scope="module")
def zminus():
    """z - 1/z: the doubly-parabolic reference model."""
    return HalfPlaneInner(beta=0.0, atoms=((0.0, 1.0),))


class TestModel:
    def test_rejects_bad_atoms(self):
        with pytest.raises(PreconditionError):
            HalfPlaneInner(atoms=((0.0, -1.0),))
        with pytest.raises(PreconditionError):
            HalfPlaneInner(atoms=((0.0, 1.0), (0.0, 2.0)))

    def test_serialization_roundtrip(self):
        F = HalfPlaneInner(beta=0.125, atoms=((0.3, 1.7), (-2.0, 0.4)))
        G = HalfPlaneInner.from_text(F.to_text())
        assert G.beta == F.beta and G.atoms == F.atoms

    def test_drift_and_jump_scale(self, zminus):
        assert zminus.drift == 0.0
        assert zminus.jump_scale == 1.0
        assert HalfPlaneInner(beta=3.0, atoms=((0.0, 1.0),)).drift == 3.0


class TestEvalDeriv:
    def test_critical_point_at_i(self, zminus):
        val, der = zminus.eval(1j), zminus.deriv(1j)
        assert val == pytest.approx(2j)
        assert der == pytest.approx(0.0)

    def test_at_2i(self, zminus):
        val, der = zminus.eval(2j), zminus.deriv(2j)
        assert val == pytest.approx(2.5j)
        assert der == pytest.approx(0.75)

    def test_pure_translation(self):
        F = HalfPlaneInner(beta=1.5)
        val, der = F.eval(0.3 + 0.7j), F.deriv(0.3 + 0.7j)
        assert val == pytest.approx(1.8 + 0.7j)
        assert der == pytest.approx(1.0)

    def test_derivative_vs_finite_differences(self, zminus):
        rng = np.random.default_rng(5)
        F = HalfPlaneInner(beta=0.25, atoms=((0.5, 1.2), (-1.5, 0.7)))
        for _ in range(10):
            z = rng.uniform(-3, 3) + 1j * rng.uniform(0.2, 3)
            h = 1e-6
            fd = (F.eval(z + h) - F.eval(z - h)) / (2 * h)
            assert abs(fd - F.deriv(z)) / abs(F.deriv(z)) < 1e-8

    def test_julia_monotonicity(self, zminus):
        rng = np.random.default_rng(6)
        z = rng.uniform(-5, 5, 200) + 1j * rng.uniform(0.01, 4, 200)
        assert np.all(zminus.eval(z).imag >= z.imag - 1e-12)

    def test_real_line_expansion_lemma(self, zminus):
        # F' > c_J > 1 on bounded intervals, stable under refinement.
        for n in (2001, 4001):
            x = np.linspace(-5, 5, n)
            vals = zminus.deriv(x + 0j).real
            cj = np.min(vals)
            assert cj > 1.0
        c1 = np.min(zminus.deriv(np.linspace(-5, 5, 2001) + 0j).real)
        c2 = np.min(zminus.deriv(np.linspace(-5, 5, 8001) + 0j).real)
        assert abs(c1 - c2) < 1e-3

    def test_boundary_dominates_interior_modulus(self, zminus):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-4, 4)
            y = rng.uniform(0.01, 3)
            assert abs(zminus.deriv(x + 1j * y)) <= abs(zminus.deriv(x + 0j)) + 1e-12

    def test_one_pass_is_eval_and_deriv(self):
        # The solve's Newton step takes F and F' from `_eval_deriv`; they
        # are `eval` and `deriv` bit for bit, at a pole too.
        rng = np.random.default_rng(8)
        for n in range(1, 9):
            F = HalfPlaneInner(beta=rng.normal(), atoms=tuple(
                zip(rng.normal(size=n) * 3, rng.uniform(0.1, 2.0, n))))
            w = rng.normal(size=(6, F.degree)) + 1j * rng.uniform(1e-6, 3, (6, F.degree))
            w[0, 0] = F.atoms[0][0]
            with np.errstate(all="ignore"):
                f, fprime = F._eval_deriv(w)
                want = F.eval(w), F.deriv(w)
            assert np.array_equal(f.view(np.uint64), want[0].view(np.uint64))
            assert np.array_equal(fprime.view(np.uint64), want[1].view(np.uint64))


class TestPreimages:
    def test_quadratic_values(self, zminus):
        got = hp_preimages_batch(zminus, [2.5j])[0]
        assert np.allclose(np.sort_complex(got), [0.5j, 2j], atol=1e-12)

    def test_half_imaginary(self, zminus):
        got = hp_preimages_batch(zminus, [0.5j])[0]
        expect = np.array([-0.96824584 + 0.25j, 0.96824584 + 0.25j])
        assert np.allclose(got, expect, atol=1e-8)
        assert np.sum(got.imag) == pytest.approx(0.5, abs=1e-12)

    def test_translation_single_branch(self):
        F = HalfPlaneInner(beta=2.0)
        got = hp_preimages_batch(F, [1 + 1j])[0]
        assert np.allclose(got, [-1 + 1j])

    def test_height_identity_generations(self, zminus):
        pts = np.array([0.5j])
        for _ in range(4):
            pts = hp_preimages_batch(zminus, pts).reshape(-1)
            assert abs(np.sum(pts.imag) - 0.5) < 1e-9
        assert np.all(pts.imag > 0)

    def test_lower_halfplane_rejected(self, zminus):
        with pytest.raises(PreconditionError):
            hp_preimages_batch(zminus, [0.5j, -1j])

    def test_stalled_polish_raises_with_context(self, zminus, monkeypatch):
        monkeypatch.setattr(_roots, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError) as info:
            hp_preimages_batch(zminus, [0.5j, 0.3 + 0.2j])
        assert set(info.value.context) == {"model", "z", "root"}
        assert info.value.context["model"] is zminus


class TestChiEll:
    def test_reference_value_2pi(self, zminus):
        assert chi_ell(zminus, tol=1e-9) == pytest.approx(2 * np.pi, abs=1e-6)

    def test_translation_is_zero(self):
        assert chi_ell(HalfPlaneInner(beta=1.0)) == 0.0

    def test_scaling_oracle_4pi(self):
        # atom (0, 4): substitute x = 2u to reuse the 2 pi identity.
        F = HalfPlaneInner(atoms=((0.0, 4.0),))
        assert chi_ell(F, tol=1e-9) == pytest.approx(4 * np.pi, abs=1e-6)

    def test_off_center_atom(self):
        # F' = 1 + c (1+x^2)/(x-u)^2 on the line, so the closed form
        # int log(1 + a^2/u^2) du = 2 pi a gives 2 pi sqrt(c (1+x^2)).
        F = HalfPlaneInner(atoms=((2.5, 1.0),))
        assert chi_ell(F, tol=1e-9) == pytest.approx(
            2 * np.pi * np.sqrt(1.0 + 2.5 ** 2), abs=1e-6)


    def test_one_debug_record(self, caplog):
        F = HalfPlaneInner(beta=0.3, atoms=((-1.0, 0.5), (2.5, 1.0)))
        with caplog.at_level(logging.DEBUG, logger="innerlab.quadrature"):
            chi_ell(F, tol=1e-8)
        records = [r for r in caplog.records
                   if r.name == "innerlab.quadrature" and r.levelno == logging.DEBUG]
        assert [r.funcName for r in records] == ["chi_ell"]
        a, b, panels, err, tol, rounds = records[0].args
        assert (a, b, tol) == (-np.pi / 2, np.pi / 2, 1e-8)
        assert 1 <= rounds <= panels and 0 <= err <= 1e-8
        assert "panels" in records[0].getMessage()


class TestHeightClassify:
    def test_doubly_parabolic(self, zminus):
        cls = height_classify(zminus)
        assert cls.kind == "infinite-height"
        assert cls.confidence == "analytic"

    def test_singly_parabolic(self):
        cls = height_classify(HalfPlaneInner(beta=3.0, atoms=((0.0, 1.0),)))
        assert cls.kind == "finite-height"
        assert cls.confidence == "analytic"

    def test_pure_translation_finite(self):
        cls = height_classify(HalfPlaneInner(beta=1.0))
        assert cls.kind == "finite-height"

    def test_asymmetric_uses_iterates(self):
        # Asymmetric atoms with zero drift: still doubly parabolic, but
        # classified by the iterate heuristic.
        F = HalfPlaneInner(beta=0.5, atoms=((0.5, 1.0),))  # drift = 0
        cls = height_classify(F)
        assert cls.confidence == "heuristic"
        assert cls.kind == "infinite-height"


def per_child_strip(F, z, interval, R):
    """Reference for enumerate_strip: a per-node loop in BFS order that
    solves one point at a time and prunes and counts each child on its own.
    Returns (counted points, their generations, explored, far-field
    pruned)."""
    lo, hi = interval
    eps = math.exp(-R)
    pole = max(abs(x) for x, _ in F.atoms)
    re_safe = max(abs(lo), abs(hi), pole) + 5.0

    def hopeless(w):
        gap = max(abs(w.real) - pole, 1.0)
        reentry = parabolic.FARFIELD_SAFETY * F.jump_scale * w.imag / (gap * gap)
        return abs(w.real) >= re_safe and reentry < eps and not lo <= w.real <= hi

    def counted(w):
        return lo <= w.real <= hi and eps <= w.imag <= 1.0 + 1e-15

    points, gens = ([z], [0]) if counted(z) else ([], [])
    explored, pruned, frontier, gen = 1, 0, [z], 0
    while frontier:
        gen, children = gen + 1, []
        for parent in frontier:
            explored += F.degree
            for w in hp_preimages_batch(F, [parent])[0]:
                if w.imag < eps:
                    continue
                if hopeless(w):
                    pruned += 1
                    continue
                children.append(w)
                if counted(w):
                    points.append(w)
                    gens.append(gen)
        frontier = children
    return np.array(points, dtype=complex), np.array(gens), explored, pruned


class TestEnumerateStrip:
    def test_R_zero_counts_nothing(self, zminus):
        profile = enumerate_strip(zminus, 0.5j, (-1.0, 1.0), 0.0)
        assert count(CountingProfile.from_strip(profile), 0.0) == 0

    def test_base_point_counted(self, zminus):
        profile = enumerate_strip(zminus, 0.5j, (-1.0, 1.0), 2.0)
        heights = CountingProfile.from_strip(profile)
        assert count(heights, 2.0) >= 1
        assert np.any(np.isclose(profile.counted_points, 0.5j))
        # Base height -log(0.5) = 0.693 <= 2.
        assert count(heights, 0.5) == 0

    def test_empty_interval(self, zminus, monkeypatch):
        # x_lo >= x_hi (or NaN) is rejected before any preimage is solved.
        def no_solve(*args, **kwargs):
            raise AssertionError("enumerated an empty interval")

        monkeypatch.setattr(parabolic, "hp_preimages_batch", no_solve)
        for interval in ((2.0, 2.0), (1.0, -1.0), (float("nan"), 1.0)):
            with pytest.raises(PreconditionError, match="x_lo < x_hi"):
                enumerate_strip(zminus, 0.5j, interval, 3.0)

    def test_finite_height_rejected(self):
        F = HalfPlaneInner(beta=3.0, atoms=((0.0, 1.0),))
        with pytest.raises(PreconditionError):
            enumerate_strip(F, 0.5j, (-1, 1), 2.0)

    def test_farfield_prune_sound(self, zminus, monkeypatch):
        a = enumerate_strip(zminus, 0.5j, (-1, 1), 5.0)
        # An infinite safety factor makes every re-entry bound infinite, so
        # no node is hopeless: the unpruned reference.
        monkeypatch.setattr(parabolic, "FARFIELD_SAFETY", math.inf)
        b = enumerate_strip(zminus, 0.5j, (-1, 1), 5.0)
        assert b.farfield_pruned == 0
        assert len(a.counted_points) == len(b.counted_points)
        assert np.allclose(np.sort_complex(a.counted_points),
                           np.sort_complex(b.counted_points), atol=1e-12)
        assert a.explored < b.explored

    def test_pruning_audit_monotone_heights(self, zminus):
        profile = enumerate_strip(zminus, 0.5j, (-1, 1), 6.0)
        assert np.all(profile.counted_points.imag <= 0.5 + 1e-12)

    def test_determinism(self, zminus):
        a = enumerate_strip(zminus, 0.5j, (-1, 1), 6.0)
        b = enumerate_strip(zminus, 0.5j, (-1, 1), 6.0)
        assert np.array_equal(a.counted_points, b.counted_points)

    def test_one_debug_record(self, zminus, caplog, monkeypatch):
        # One record per call, after the loop: generations (solves),
        # explored, counted, far-field pruned, and the largest and median
        # frontier solved.
        frontier, solve = [], parabolic.hp_preimages_batch

        def spy(F, zs):
            frontier.append(len(zs))
            return solve(F, zs)

        monkeypatch.setattr(parabolic, "hp_preimages_batch", spy)
        with caplog.at_level(logging.DEBUG, logger="innerlab.parabolic"):
            profile = enumerate_strip(zminus, 0.5j, (-1.0, 1.0), 6.0)
        [record] = [r for r in caplog.records if r.msg == parabolic._STRIP_RECORD]
        assert record.args == (len(frontier), profile.explored,
                               len(profile.counted_points), profile.farfield_pruned,
                               max(frontier), np.median(frontier))
        assert profile.explored == 1 + zminus.degree * sum(frontier)
        assert profile.farfield_pruned > 0

    def test_critical_value_counts_both_copies(self, zminus):
        # 2i is the critical value of z - 1/z, and i its double preimage.
        # The tree from 2i is the tree from i twice over, one generation
        # down: both copies are counted, each with its subtree, the rule
        # that the disk tree shares.
        assert np.array_equal(hp_preimages_batch(zminus, [2j]), [[1j, 1j]])
        whole = enumerate_strip(zminus, 2j, (-1.0, 1.0), 6.0)
        half = enumerate_strip(zminus, 1j, (-1.0, 1.0), 6.0)
        twice = [np.tile(half.counted_points[half.counted_generations == g], 2)
                 for g in range(half.counted_generations.max() + 1)]
        assert np.array_equal(whole.counted_points, np.concatenate(twice))
        assert np.array_equal(whole.counted_generations,
                              np.repeat(np.arange(1, len(twice) + 1),
                                        [len(t) for t in twice]))
        assert whole.explored == 1 + 2 * half.explored
        assert whole.farfield_pruned == 2 * half.farfield_pruned > 0

    @pytest.mark.parametrize("case", ["zminus", "three-atom"])
    def test_matches_per_child_loop(self, case, zminus, three_atoms):
        # Batching a generation changes no digit, no prune and no count.
        F = {"zminus": zminus, "three-atom": three_atoms}[case]
        profile = enumerate_strip(F, 0.5j, (-1.0, 1.0), 8.0)
        points, gens, explored, pruned = per_child_strip(F, 0.5j, (-1.0, 1.0), 8.0)
        assert np.array_equal(profile.counted_points, points)
        assert np.array_equal(profile.counted_generations, gens)
        assert (profile.explored, profile.farfield_pruned) == (explored, pruned)
        assert pruned > 0


def sorted_points(profile):
    """The counted points, each generation's in `_sort_roots` order: the
    strip's solve leaves the order within a row to the root finder."""
    gens = profile.counted_generations
    return np.concatenate([_sort_roots(profile.counted_points[gens == g][None])[0]
                           for g in range(gens.max() + 1)])


def ring_start(coeffs, start=None):
    """aberth_batch with any `start` dropped for the default ring."""
    return aberth_batch(coeffs)


def companion_roots(coeffs, start=None):
    """Every row rooted by companion-matrix eigenvalues (`np.roots`)."""
    return np.array([np.roots(row[::-1]) for row in np.atleast_2d(coeffs)])


@pytest.fixture(scope="module")
def three_atoms():
    """A degree-4 model: its strip solve runs Aberth from the pole start."""
    return HalfPlaneInner(beta=0.0, atoms=((-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)))


class TestRootStart:
    ZS = np.array([0.5j, 0.3 + 0.2j, -1.5 + 0.05j])

    @staticmethod
    def iterations(caplog, F, zs):
        """hp_preimages_batch and the iteration count its root solve logs."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            rows = hp_preimages_batch(F, zs)
        [record] = aberth_records(caplog)
        return rows, record.args[2]

    def test_pole_start_beats_ring(self, three_atoms, caplog, monkeypatch):
        # Why hp_preimages_batch passes a start at all: from z - beta and
        # next to each pole Aberth needs fewer iterations than from the ring.
        poles, n_poles = self.iterations(caplog, three_atoms, self.ZS)
        monkeypatch.setattr(_roots, "aberth_batch", ring_start)
        ring, n_ring = self.iterations(caplog, three_atoms, self.ZS)
        assert n_poles < n_ring
        assert np.max(np.abs(_sort_roots(poles) - _sort_roots(ring))) < 1e-12

    def test_strip_matches_cold_start(self, three_atoms, monkeypatch):
        poles = enumerate_strip(three_atoms, 0.5j, (-1, 1), 8.0)
        monkeypatch.setattr(_roots, "aberth_batch", ring_start)
        ring = enumerate_strip(three_atoms, 0.5j, (-1, 1), 8.0)
        assert poles.explored == ring.explored
        assert poles.farfield_pruned == ring.farfield_pruned
        assert np.array_equal(poles.counted_generations, ring.counted_generations)
        assert np.max(np.abs(sorted_points(poles) - sorted_points(ring))) < 1e-12

    def test_large_roots_stop_without_fallback(self, three_atoms, caplog,
                                               monkeypatch):
        # Far-field rows have a root near z, of modulus up to ~26 at R = 8.
        # Aberth's step test is relative to max(1, |w|), so those rows stop
        # instead of running out of iterations (no row is left moving), and
        # they match companion-matrix roots.
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            strip = enumerate_strip(three_atoms, 0.5j, (-1, 1), 8.0)
        assert aberth_records(caplog)
        assert all(record.args[3] == 0 for record in aberth_records(caplog))
        assert strip.explored == 6613
        assert np.array_equal(
            np.bincount(strip.counted_generations),
            [1, 2, 8, 32, 44, 32, 20] + [4] * 14 + [2])
        monkeypatch.setattr(_roots, "aberth_batch", companion_roots)
        companion = enumerate_strip(three_atoms, 0.5j, (-1, 1), 8.0)
        assert companion.explored == strip.explored
        assert np.array_equal(companion.counted_generations,
                              strip.counted_generations)
        assert np.max(np.abs(sorted_points(companion) - sorted_points(strip))) < 1e-12


class TestStripReport:
    def test_target_arithmetic(self, zminus):
        # The strip's rows are the disk's report on heights -log Im w.
        profile = enumerate_strip(zminus, 0.5j, (-1.0, 1.0), 4.0)
        [row] = counting_report(CountingProfile.from_strip(profile), [4.0],
                                1 / np.pi)
        assert row.target == 1 / np.pi
        h = -np.log(profile.counted_points.imag)
        assert row.count == np.sum(h <= 4.0) > 0
        assert row.count_over_eR == row.count * np.exp(-4.0)

    def test_cesaro_exactness_vs_quadrature(self, zminus):
        from scipy.integrate import quad
        profile = CountingProfile.from_strip(
            enumerate_strip(zminus, 0.5j, (-1.0, 1.0), 6.0))
        h = profile.radii
        R = 5.5

        def integrand(S):
            return np.searchsorted(h, S, "right") * np.exp(-S)

        val, _ = quad(integrand, 0, R, points=list(h[h <= R][:40]), limit=300)
        assert cesaro(profile, R) == pytest.approx(val / R, abs=1e-9)

    def test_pointwise_ratio_with_mass_factor(self, zminus):
        # N_I(z, R) e^{-R} approaches Im(z) |I| / chi_ell (the printed
        # theorem omits the Im(z) transverse-mass factor).
        profile = enumerate_strip(zminus, 0.5j, (-1.0, 1.0), 9.0)
        rows = counting_report(CountingProfile.from_strip(profile), [9.0],
                               2.0 / (2 * np.pi))
        corrected = rows[0].count_over_eR / (0.5 * rows[0].target)
        assert 0.9 <= corrected <= 1.1


class TestRationalForm:
    MODEL = HalfPlaneInner(beta=0.25, atoms=((-1.5, 0.3), (0.0, 1.0), (2.0, 0.7)))

    def test_quotient_matches_eval(self, rng):
        N, D = self.MODEL.rational_coeffs
        xs = np.array([x for x, _ in self.MODEL.atoms])
        far = rng.uniform(-5, 5, 200) + 1j * rng.uniform(1e-3, 5, 200)
        # Points within 1e-3 of each pole, in H.
        near = (xs[:, None] + 1e-3 * np.exp(1j * rng.uniform(0.05, np.pi - 0.05,
                                                            (len(xs), 50)))).ravel()
        for w in (far, near):
            got = np.polynomial.polynomial.polyval(w, N) \
                / np.polynomial.polynomial.polyval(w, D)
            want = self.MODEL.eval(w)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_denominator_roots_are_atoms(self):
        _, D = self.MODEL.rational_coeffs
        roots = np.sort(np.roots(D[::-1]).real)
        assert np.max(np.abs(roots - sorted(x for x, _ in self.MODEL.atoms))) < 1e-12

    def test_built_once_per_model(self, monkeypatch):
        calls = []
        convolve = np.convolve

        def counted(*args, **kwargs):
            calls.append(1)
            return convolve(*args, **kwargs)
        monkeypatch.setattr(np, "convolve", counted)
        hp = HalfPlaneInner(beta=0.0, atoms=((-1.0, 0.5), (1.0, 0.5)))
        disk = InnerModel.from_zeros(0, 0.5, 0.3j)
        for solve, F, zs in ((hp_preimages_batch, hp, [0.5j, 1 + 0.2j]),
                             (preimages_of_batch, disk, [0.3, 0.1j])):
            solve(F, zs)
            assert calls
            calls.clear()
            solve(F, zs)
            solve(F, zs)
            assert calls == []
