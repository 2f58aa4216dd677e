import logging
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (aberth_records, critical_points, cubic_critical_point,
                      near_degenerate, random_centered_blaschke,
                      random_disk_point, whole_generations)
from innerlab import _roots, preimage
from innerlab._roots import aberth_batch
from innerlab.errors import (BudgetError, DomainError, NumericalError,
                             PreconditionError)
from innerlab.hypgeo import origin_distance
from innerlab.innerfn import InnerModel
from innerlab.lamination import _sort_roots
from innerlab.parabolic import HalfPlaneInner, hp_preimages_batch
from innerlab.preimage import enumerate_ball, preimages_of_batch


def packet_radius(d, n, base=np.exp(-1.0)):
    """Closed-form hyperbolic radius of the generation-n packet of z^d
    preimages of `base`."""
    r = base ** (d ** -float(n))
    return np.log((1 + r) / (1 - r))


def turn_default_start(monkeypatch, turn):
    """Turns the default ring of Aberth starts by `turn` radians."""
    ring = _roots._default_start
    monkeypatch.setattr(_roots, "_default_start",
                        lambda m, d: ring(m, d) * np.exp(1j * turn))


def per_child_ball(F, z, R):
    """Reference for enumerate_ball: a loop over every child, keeping each
    one with d(0, w) <= R."""
    gens = [(np.array([z], dtype=complex), np.array([-1]), np.array([0]))]
    while len(gens[-1][0]):
        roots = preimages_of_batch(F, gens[-1][0])
        radii = origin_distance(np.abs(roots))
        kept = [(i, j) for i, j in np.ndindex(roots.shape) if radii[i, j] <= R]
        if not kept:
            break
        par, br = np.array(kept).T
        gens.append((roots[par, br], par, br))
    return gens


class TestPreimagesOf:
    def test_square_roots(self, square):
        roots = preimages_of_batch(square, [0.25])[0]
        assert sorted(np.round(roots.real, 12)) == [-0.5, 0.5]
        assert np.max(np.abs(roots.imag)) < 1e-12

    def test_double_root(self, square):
        roots = preimages_of_batch(square, [0.0])[0]
        assert len(roots) == 2
        assert np.max(np.abs(roots)) < 1e-6  # residual |w^2| < 1e-12

    def test_deg2_height_identity(self, deg2):
        roots = preimages_of_batch(deg2, [0.3])[0]
        total = np.sum(np.log(1.0 / np.abs(roots)))
        assert total == pytest.approx(np.log(1 / 0.3), abs=1e-12)

    def test_independent_quadratic_oracle(self, deg2):
        # w(1/2 - w)/(1 - w/2) = z  <=>  w^2 - (1/2)(1 + z) w + z = 0,
        # solved by the companion matrix, independent of the Aberth path.
        z = 0.31 - 0.17j
        expect = np.roots([1.0, -0.5 * (1 + z), z])
        got = preimages_of_batch(deg2, [z])[0]
        assert np.allclose(np.sort_complex(got), np.sort_complex(expect),
                           atol=1e-12)

    def test_residuals(self, rng):
        for _ in range(20):
            F = random_centered_blaschke(rng)
            z = random_disk_point(rng)
            roots = preimages_of_batch(F, [z])[0]
            assert len(roots) == F.degree
            assert np.max(np.abs(F.eval(roots) - z)) < 1e-12

    def test_deterministic_across_runs(self, rng):
        F = random_centered_blaschke(rng)
        zs = np.array([random_disk_point(rng) for _ in range(50)])
        a = preimages_of_batch(F, zs)
        b = preimages_of_batch(F, zs)
        assert np.array_equal(a, b)

    def test_boundary_points_stay_on_circle(self, deg2):
        roots = preimages_of_batch(deg2, [np.exp(0.4j)])[0]
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-12

    def test_atom_model_rejected(self):
        with pytest.raises(PreconditionError):
            preimages_of_batch(InnerModel.atom_map(0.0, 1.0), [0.3])


class TestFallbacks:
    def test_stalled_rows_are_rescued(self, caplog, monkeypatch):
        # Every row comes back from Aberth at its starting ring, as a row
        # still moving after MAX_ITER would; one Newton step leaves it off
        # its roots, and the rescue roots it from there.  On 40 seeded
        # models of degree 3 to 8 no iterate may be caught at a pole
        # 1/conj(a) of F, where p'/p = F'/(F - z) + D'/D cancels.
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(40):
            F = seeded_disk_model(rng, int(rng.integers(3, 9)))
            zs = rng.uniform(0.05, 0.95, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
            cases.append((F, zs, preimages_of_batch(F, zs)))
        monkeypatch.setattr(_roots, "aberth_batch", lambda coeffs, start=None:
                            _roots._default_start(len(coeffs), coeffs.shape[1] - 1))
        for F, zs, normal in cases:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
                rescued = preimages_of_batch(F, zs)
            [record] = [r for r in caplog.records if r.msg == _roots._SOLVE_RECORD]
            assert record.args[2] == len(zs)
            assert np.max(np.abs(_sort_roots(rescued) - _sort_roots(normal))) <= 1e-12

    @staticmethod
    def compaction_case(rng):
        """(coeffs, start, exact) of 16 cubics.  Rows 0, 4, 8, ... start at
        their roots and finish on the first iteration; rows 2, 6, 10, ...
        start 1e-6 off and finish on the second, after the working set has
        shrunk; odd rows start far off and, with MAX_ITER = 2, are still
        moving when the iterations run out."""
        coeffs = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
        exact = np.array([np.roots(c[::-1]) for c in coeffs])
        kind = (np.arange(16) % 4)[:, None]
        start = np.where(kind == 0, exact,
                         np.where(kind == 2, exact + 1e-6, [5.0, 6.0, 7.0]))
        return coeffs, start, exact

    def test_compaction_writes_rows_back_in_place(self, rng, caplog, monkeypatch):
        # Each row must land back in its own position: the finished rows
        # at their roots, the rows still moving with their last iterates,
        # which are those of the same rows iterated alone and are not yet
        # roots.
        coeffs, start, exact = self.compaction_case(rng)
        monkeypatch.setattr(_roots, "MAX_ITER", 2)
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            roots = aberth_batch(coeffs, start=start)
        [record] = caplog.records
        assert record.args == (16, 3, 2, 8)    # rows, degree, iterations, left moving
        done, moving = slice(0, None, 2), slice(1, None, 2)
        assert np.max(np.abs(np.sort_complex(roots[done])
                             - np.sort_complex(exact[done]))) < 1e-12
        assert np.array_equal(roots[moving],
                              aberth_batch(coeffs[moving], start=start[moving]))
        assert np.min(np.max(np.abs(np.sort_complex(roots[moving])
                                    - np.sort_complex(exact[moving])), axis=1)) > 1e-3

    def test_row_blocks_change_no_digit(self, rng, caplog, monkeypatch):
        # The rows of the compaction test in blocks of 5, 5, 5 and 1: the
        # same roots bit for bit, the rows left moving at their own
        # positions, and one record with the most iterations of any block
        # and the rows left moving summed over the blocks.
        coeffs, start, _ = self.compaction_case(rng)
        monkeypatch.setattr(_roots, "MAX_ITER", 2)
        whole = aberth_batch(coeffs, start=start)
        monkeypatch.setattr(_roots, "BLOCK_ROWS", 5)
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            blocked = aberth_batch(coeffs, start=start)
        [record] = caplog.records
        assert record.args == (16, 3, 2, 8)
        assert np.array_equal(blocked, whole)

    def test_residual_check_raises_with_context(self, deg2, monkeypatch):
        monkeypatch.setattr(_roots, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError) as info:
            preimages_of_batch(deg2, [0.3, 0.1 + 0.2j])
        assert set(info.value.context) == {"model", "z", "root"}
        assert info.value.context["model"] is deg2


def mp_quadratic_roots(b, c):
    """Both roots of w^2 + b w + c, by mpmath at 30 digits."""
    with mpmath.workdps(30):
        roots = mpmath.polyroots([1, mpmath.mpc(b), mpmath.mpc(c)],
                                 maxsteps=200, extraprec=200)
        return np.array([complex(r) for r in roots])


class TestQuadratic:
    @staticmethod
    def cases():
        """(b, c) rows: seeded random quadratics and the edge cases."""
        rng = np.random.default_rng(19)
        r1, r2 = (rng.normal(size=(2, 100)) + 1j * rng.normal(size=(2, 100)))
        far = 1e3 * np.exp(2j * np.pi * rng.uniform(size=10))
        b = [-(r1 + r2), rng.normal(size=20) + 1j * rng.normal(size=20)]
        c = [r1 * r2, 5 * (rng.normal(size=20) + 1j * rng.normal(size=20))]
        edge = [(0.0, -0.25),                   # z^2 = 0.25: +-0.5
                (0.0, 0.3 - 0.7j),              # b = 0: +-sqrt(-c)
                (0.4 - 1.1j, 0.0),              # c = 0: a root at 0
                (0.0, 0.0),                     # the double root 0
                (-0.75 + 1.25j, -0.25 - 0.46875j),  # b^2 = 4c exactly
                (-1.0 - 1.0j, 0.5j - 2.5e-17)]  # roots (1 + i)/2 +- 5e-9
        b.append(np.array([e[0] for e in edge], dtype=complex))
        c.append(np.array([e[1] for e in edge], dtype=complex))
        # The strip's far field: one root near z, one near -1/z; and two
        # roots of modulus ~1e3.
        b += [-(far - 1 / far), -(far + 1.5 * far * np.exp(1j))]
        c += [-np.ones(10, dtype=complex), 1.5 * far * far * np.exp(1j)]
        return np.concatenate(b), np.concatenate(c)

    def test_matches_mpmath(self, caplog):
        b, c = self.cases()
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            got = aberth_batch(np.column_stack([c, b, np.ones_like(b)]))
        [record] = caplog.records
        assert record.args == (len(b), 2, 0, 0)
        for row, bi, ci in zip(got, b, c):
            want = mp_quadratic_roots(bi, ci)
            err = min(np.max(np.abs(row - w) / np.maximum(1.0, np.abs(w)))
                      for w in (want, want[::-1]))
            assert err <= 4 * np.finfo(float).eps, (bi, ci)

    def test_ignores_start_and_scales_rows(self, caplog):
        # A leading coefficient other than 1 is divided out; `start` is
        # not read at degree 2.
        b, c = self.cases()
        coeffs = np.column_stack([c, b, np.ones_like(b)])
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            plain = aberth_batch(coeffs)
            started = aberth_batch(4 * coeffs, start=np.full(plain.shape, np.nan))
        assert [r.args for r in caplog.records] == [(len(b), 2, 0, 0)] * 2
        assert np.array_equal(plain, started)


def mp_preimages(F, z, dps=50):
    """Roots of rot * prod (-|a|/a)(w - a) - z * prod (1 - conj(a) w), the
    numerator of F(w) - z (factor w for a = 0), by mpmath at `dps` digits."""
    with mpmath.workdps(dps):
        num, den = [mpmath.mpc(F.rotation)], [mpmath.mpc(1)]   # highest first
        for a in map(mpmath.mpc, F.zeros):
            if a == 0:
                num = num + [0]
            else:
                u = -abs(a) / a
                num = np.convolve(num, [u, -u * a]).tolist()
                den = np.convolve(den, [-mpmath.conj(a), 1]).tolist()
        den = [0] * (len(num) - len(den)) + den
        poly = [p - mpmath.mpc(z) * q for p, q in zip(num, den)]
        roots = mpmath.polyroots(poly, maxsteps=200, extraprec=200)
        return np.array([complex(r) for r in roots])


class TestMpmathOracle:
    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("case", ["deg2", "degree6"])
    def test_preimages_near_circle(self, case, gap, deg2):
        rng = np.random.default_rng(8)
        if case == "deg2":
            F = deg2
        else:
            radii = rng.uniform(0.1, 0.9, 5)
            zeros = (0j,) + tuple(radii * np.exp(2j * np.pi * rng.uniform(size=5)))
            F = InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()), zeros=zeros)
        zs = (1.0 - gap) * np.exp(2j * np.pi * rng.uniform(size=8))
        got = preimages_of_batch(F, zs)
        for z, row in zip(zs, got):
            dist = np.abs(row[:, None] - mp_preimages(F, z)[None, :])
            assert sorted(np.argmin(dist, axis=1)) == list(range(F.degree))
            assert np.max(np.min(dist, axis=1)) < 1e-13

    @pytest.mark.parametrize("zeros, zs", [
        ((0.95,) * 10, (0.5, 0.3j)), ((0.9,) * 12, (0.5, 0.3j)),
        ((0.99,) * 8, (0.5, 0.3j)), ((0.95,) * 16, (0.5, 0.3j)),
        ((0.9,) + (0.999,) * 4, (0.5,))],
        ids=["0.95x10", "0.9x12", "0.99x8", "0.95x16", "0.999x4"])
    def test_multiple_zeros_near_circle(self, zeros, zs):
        # The expanded coefficients of these models lose the roots' digits
        # (one Newton step leaves residuals up to 1e10); the product-form
        # rescue roots them to mpmath's at 60 digits on the product
        # polynomial, with the residual and height identity to 1e-12.
        F = InnerModel.from_zeros(0, *zeros)
        zs = np.array(zs, dtype=complex)
        for z, row in zip(zs, preimages_of_batch(F, zs)):
            assert_checked_preimages(F, z, row)
            dist = np.abs(row[:, None] - mp_preimages(F, z, 60)[None, :])
            assert sorted(np.argmin(dist, axis=1)) == list(range(F.degree))
            assert np.max(np.min(dist, axis=1)) < 1e-14


def mp_strip_preimages(F, z, dps=30):
    """Roots of N(w) - z D(w) for a HalfPlaneInner, D = prod (x_k - w) and
    N = (w + beta) D + sum c_k (1 + w x_k) prod_{l != k} (x_l - w), built
    from the atoms by mpmath at `dps` digits."""
    def product(xs):                    # prod (x - w), highest first
        out = [mpmath.mpf(1)]
        for x in xs:
            out = np.convolve(out, [-1, mpmath.mpf(x)]).tolist()
        return out

    with mpmath.workdps(dps):
        xs = [x for x, _ in F.atoms]
        den = product(xs)
        num = np.convolve([1, mpmath.mpf(F.beta)], den).tolist()
        for k, (x, c) in enumerate(F.atoms):
            term = np.convolve([mpmath.mpf(c) * x, mpmath.mpf(c)],
                               product(xs[:k] + xs[k + 1:])).tolist()
            num = [a + b for a, b in zip(num, [0] + term, strict=True)]
        den = [0] + den
        poly = [p - mpmath.mpc(z) * q for p, q in zip(num, den, strict=True)]
        roots = mpmath.polyroots(poly, maxsteps=200, extraprec=200)
        return np.array([complex(r) for r in roots])


def seeded_disk_model(rng, d):
    """A model of degree d with zeros 0 and d - 1 seeded zeros of modulus
    0.1 to 0.9, and a seeded rotation."""
    radii = rng.uniform(0.1, 0.9, d - 1)
    zeros = (0j,) + tuple(radii * np.exp(2j * np.pi * rng.uniform(size=d - 1)))
    return InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()), zeros=zeros)


def zminus_model():
    return HalfPlaneInner(atoms=((0.0, 1.0),))


def three_atom_model():
    return HalfPlaneInner(atoms=((-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)))


class TestPreimageSolve:
    """The one solve of disk and strip: the closed form or Aberth, then one
    Newton sweep on F(w) - z and the residual check."""

    ULPS = 4

    @staticmethod
    def oracle_cases(case):
        """(solve, F, zs, oracle) of a case: seeded points of a seeded
        model, or points 1e-8 from a critical value."""
        rng = np.random.default_rng(20)
        if case == "disk-critical":
            # 2 - sqrt(3) is the critical point of deg2.
            F = InnerModel.from_zeros(0, 0.5)
            zs = F.eval(2.0 - np.sqrt(3.0)) + 1e-8 * np.array([1, 1j, -1, -1j])
            return preimages_of_batch, F, zs, lambda z: mp_preimages(F, z, 30)
        if case.startswith("disk"):
            F = seeded_disk_model(rng, int(case[-1]))
            zs = rng.uniform(0.05, 0.95, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
            return preimages_of_batch, F, zs, lambda z: mp_preimages(F, z, 30)
        F = three_atom_model() if case == "three-atom" else zminus_model()
        if case == "zminus-critical":
            # F' = 1 + 1/w^2 vanishes at w = i, and F(i) = 2i.
            zs = 2j + 1e-8 * np.array([1, 1j, -1, -1j])
        else:
            zs = rng.uniform(-3, 3, 12) + 1j * 10.0 ** rng.uniform(-3, 1, 12)
        return hp_preimages_batch, F, zs, lambda z: mp_strip_preimages(F, z)

    @pytest.mark.parametrize("case", ["disk-d2", "disk-d3", "disk-d6",
                                      "disk-critical", "zminus",
                                      "zminus-critical", "three-atom"])
    def test_matches_mpmath(self, case):
        # Each root lies within ULPS ulps of max(1, |w|) of mpmath's, times
        # the root's condition number max(1, 1/|F'(w)|), which is about 5e3
        # at the points 1e-8 from a critical value.
        solve, F, zs, oracle = self.oracle_cases(case)
        got = solve(F, zs)
        for z, row in zip(zs, got):
            want = oracle(z)
            dist = np.abs(row[:, None] - want[None, :])
            match = np.argmin(dist, axis=1)
            assert sorted(match) == list(range(F.degree))
            cond = np.maximum(1.0, 1.0 / np.abs(F.deriv(row)))
            ulp = np.finfo(float).eps * np.maximum(1.0, np.abs(want[match]))
            bound = self.ULPS * ulp * cond
            assert np.all(np.min(dist, axis=1) <= bound), (z, row, want)

    @pytest.mark.parametrize("case", ["disk", "strip"])
    def test_one_newton_sweep(self, case, monkeypatch):
        # One solve evaluates F twice (the Newton step, the residual) and
        # F' once.  The step's F and F' share one pass: over the factors
        # in the disk, so a one-block solve makes two factor passes, and
        # over the atoms in the strip.
        if case == "disk":
            F, zs = seeded_disk_model(np.random.default_rng(3), 6), np.array([0.3, 0.1j])
            names, want = ("eval", "deriv", "_eval_deriv", "_factors"), \
                {"eval": 1, "_eval_deriv": 1, "_factors": 2}
            assert zs.size * F.degree <= F._block
        else:
            F, zs = zminus_model(), np.array([0.5j, 0.3 + 0.2j])
            names, want = ("eval", "deriv", "_eval_deriv"), \
                {"eval": 1, "_eval_deriv": 1}
        calls = Counter()
        for name in names:
            def counted(self, *args, method=getattr(type(F), name), name=name):
                calls[name] += 1
                return method(self, *args)
            monkeypatch.setattr(type(F), name, counted)
        _roots._preimage_roots(F, zs)
        assert calls == want

    @pytest.mark.parametrize("case", ["disk", "strip"])
    def test_one_debug_record(self, case, caplog):
        # One record per solve: rows, degree, rows rescued, the worst
        # residual over its scale and the largest relative first Newton
        # step.  It changes no root.
        if case == "disk":
            F, solve = InnerModel.from_zeros(0, 0.5), preimages_of_batch
            zs = np.array([0.3, 0.1 + 0.2j, -0.5j])
        else:
            F, solve = three_atom_model(), hp_preimages_batch
            zs = np.array([0.5j, 2.0 + 0.05j, -3.0 + 1j])
        quiet = solve(F, zs)
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            rows = solve(F, zs)
        [record] = [r for r in caplog.records if r.msg == _roots._SOLVE_RECORD]
        assert np.array_equal(rows, quiet)
        n, d, rescued, resid, step = record.args
        assert (n, d, rescued) == (len(zs), F.degree, 0)
        scale = max(1.0, np.max(np.abs(zs))) if case == "strip" else 1.0
        worst = np.max(np.abs(F.eval(rows) - zs[:, None])) / scale
        assert resid == pytest.approx(worst, rel=1e-6, abs=1e-18)
        assert resid <= _roots.RESIDUAL_TOL
        assert 0.0 <= step < 1e-14

    @pytest.mark.parametrize("case", ["disk", "strip", "tree", "inf"])
    def test_non_finite_point_raises_domain_error(self, deg2, case):
        # The NaN residual of a non-finite z fails the check instead of
        # passing it, and the row goes no further than the rescue.
        call = {
            "disk": lambda: preimages_of_batch(InnerModel.from_zeros(0, 0.5),
                                               [np.nan, 0.3]),
            "strip": lambda: hp_preimages_batch(HalfPlaneInner(atoms=((0, 1),)),
                                                [complex(np.nan, 1.0)]),
            "tree": lambda: enumerate_ball(deg2, complex(np.nan, 0.0), 5),
            "inf": lambda: preimages_of_batch(
                InnerModel.from_zeros(0, 0.5, 0.3j, -0.2), [0.3, complex(0.0, np.inf)]),
        }[case]
        # And it raises before numpy warns about the NaN or inf arithmetic.
        with warnings.catch_warnings(), pytest.raises(DomainError, match="non-finite"):
            warnings.simplefilter("error")
            call()

    def test_rescues_rows_that_fail_the_check(self, caplog, monkeypatch):
        # A zero of multiplicity 7 at 0.95 makes the rational form's
        # coefficients ill-conditioned: Aberth's roots are off by up to
        # ~6e-8 and one Newton step leaves residuals of 4e-12 to 4e-11.
        # Those rows go to the rescue (well-conditioned rows do not: see
        # test_one_debug_record).
        F = InnerModel.from_zeros(0, *[0.95] * 7)
        zs = np.array([0.5, 0.3j, 0.5 + 0.5j])
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            rows = preimages_of_batch(F, zs)
        [record] = [r for r in caplog.records if r.msg == _roots._SOLVE_RECORD]
        assert record.args[2] == len(zs)
        for z, row in zip(zs, rows):
            assert_checked_preimages(F, z, row)
        monkeypatch.setattr(_roots, "_rescue", lambda F, w, z: w)
        with pytest.raises(NumericalError, match="root polish stalled"):
            preimages_of_batch(F, zs)

    def test_rescue_keeps_a_row_only_if_better(self, monkeypatch):
        # A multi-atom strip point where the bound sits below F's own
        # rounding error near a pole: the solve raises, and the rescue's
        # roots have a larger worst residual than the Newton step's.  The
        # error reports the row the Newton step left, as it does with no
        # rescue at all.
        rng = np.random.default_rng(7)
        for _ in range(11):
            xs = np.sort(rng.uniform(-3, 3, rng.integers(2, 6)))
            F = HalfPlaneInner(rng.normal(), tuple((x, rng.uniform(0.2, 2)) for x in xs))
        z = (rng.uniform(-4, 4, 40) + 1j * 10.0 ** rng.uniform(-3, 1, 40))[14]
        rescue, worse = _roots._rescue, []

        def spy(F, w, z):
            out = rescue(F, w, z)
            worse.append(np.max(np.abs(F.eval(out) - z)) > np.max(np.abs(F.eval(w) - z)))
            return out

        monkeypatch.setattr(_roots, "_rescue", spy)
        with pytest.raises(NumericalError, match="root polish stalled") as kept:
            hp_preimages_batch(F, [z])
        assert worse == [True]
        monkeypatch.setattr(_roots, "_rescue", lambda F, w, z: w)
        with pytest.raises(NumericalError) as unrescued:
            hp_preimages_batch(F, [z])
        assert str(kept.value) == str(unrescued.value)
        assert kept.value.context["root"] == unrescued.value.context["root"]


def assert_checked_preimages(F, z, roots):
    """The residual, the disk and the height identity of a preimage row."""
    assert len(roots) == F.degree
    assert np.max(np.abs(F.eval(roots) - z)) <= 1e-12
    assert np.max(np.abs(roots)) < 1.0
    heights = np.sum(np.log(1.0 / np.abs(roots)))
    assert abs(heights - np.log(1.0 / abs(z))) <= 1e-12


class TestNearDegenerate:
    @pytest.mark.parametrize("kind", ["clustered", "repeated"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_preimages_are_checked(self, kind, data):
        F, z = data.draw(near_degenerate(kind))
        assert_checked_preimages(F, z, preimages_of_batch(F, [z])[0])

    @pytest.mark.parametrize("kind", ["near-circle", "on-circle"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_zeros_near_circle_raise_or_are_checked(self, kind, data):
        # Near a zero a with 1 - |a| small, F's own rounding error, about
        # eps / (1 - |a|) per factor, and |F'| * eps reach the absolute
        # 1e-12 residual: within 1e-5 of the circle, or for several zeros
        # bunched near it, the solve raises.  It never returns a row that
        # has not passed the checks.
        F, z = data.draw(near_degenerate(kind))
        try:
            roots = preimages_of_batch(F, [z])[0]
        except NumericalError:
            return
        assert_checked_preimages(F, z, roots)

    def test_subnormal_zero_height_identity(self):
        # |a|/a of a subnormal a is unimodular only to about 1e-11; the
        # model takes it on a * 2^600, so F stays inner.
        F = InnerModel.from_zeros(0, 1.573364814e-313 * (1 - 1j))
        assert_checked_preimages(F, 0.5, preimages_of_batch(F, [0.5])[0])

    def test_zero_on_circle_raises(self):
        F = InnerModel.from_zeros(0, 1.0 - 1e-6)
        with pytest.raises(NumericalError, match="root polish stalled"):
            preimages_of_batch(F, [0.5])


class TestEnumerateBall:
    def test_small_cutoff_empty(self, square):
        tree = enumerate_ball(square, np.exp(-1.0), 0.5)
        assert tree.size() == 0

    def test_radius_two(self, square):
        tree = enumerate_ball(square, np.exp(-1.0), 2.0)
        assert tree.size() == 3
        radii = tree.radii()
        assert radii[0] == pytest.approx(packet_radius(2, 0), abs=1e-12)
        assert radii[1] == pytest.approx(packet_radius(2, 1), abs=1e-12)
        assert radii[2] == pytest.approx(packet_radius(2, 1), abs=1e-12)

    def test_cubic_packet_arrival(self):
        F3 = InnerModel.power_map(3)
        R = packet_radius(3, 1) + 1e-6
        tree = enumerate_ball(F3, np.exp(-1.0), R)
        assert tree.size() == 1 + 3

    def test_rotation_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_ball(InnerModel(zeros=(0j,)), 0.3, 2.0)

    def test_zero_base_rejected(self, square):
        with pytest.raises(PreconditionError):
            enumerate_ball(square, 0.0, 2.0)

    @pytest.mark.parametrize("R", [0.0, -1.0, np.inf, np.nan])
    def test_radius_outside_zero_to_inf_rejected(self, square, R):
        with pytest.raises(PreconditionError, match="positive and finite"):
            enumerate_ball(square, 0.3, R)

    @pytest.mark.parametrize("zeros, R", [((0, 0.5), 13.0),
                                          ((0, 0.6j, -0.3 + 0.4j, 0.7), 12.0)])
    def test_first_generations_are_whole(self, zeros, R):
        # Generation 4 reaches d = 4.0 on deg2 and 8.2 on degree 4, below
        # R* = 12.71 and 11.43: generations 0-4 lose no node to either
        # cutoff, so they are the whole generations of the height identity.
        F = InnerModel.from_zeros(*zeros)
        tree = enumerate_ball(F, 0.3, R)
        whole = whole_generations(F, 0.3, 4)
        assert np.max(origin_distance(np.abs(whole[4]))) < tree.expand_radius
        for got, want in zip(tree.points[:5], whole, strict=True):
            assert np.array_equal(got, want)

    def test_budget_error_carries_partial(self, deg2):
        with pytest.raises(BudgetError) as err:
            enumerate_ball(deg2, 0.3, 12.0, node_budget=100)
        assert err.value.partial is not None
        assert err.value.partial.size() > 0

    def test_pruning_soundness_superset(self, deg2):
        small = enumerate_ball(deg2, 0.3, 6.0)
        big = enumerate_ball(deg2, 0.3, 8.0)
        r_small = small.radii()
        r_big = big.radii()
        assert len(r_big) >= len(r_small)
        # Counts agree exactly at any radius <= the smaller cutoff.
        for s in (1.0, 3.0, 5.5, 6.0):
            assert (np.searchsorted(r_small, s, "right")
                    == np.searchsorted(r_big, s, "right"))
        # Node multiset at radius <= 6 coincides.
        assert np.allclose(r_big[: len(r_small)], r_small, atol=1e-12)

    def test_parent_residuals(self, deg2):
        tree = enumerate_ball(deg2, 0.3, 7.0)
        assert tree.max_residual() < 1e-10

    def test_schwarz_child_radius(self, deg2):
        tree = enumerate_ball(deg2, 0.3, 7.0)
        for g in range(1, tree.generations):
            child = origin_distance(np.abs(tree.points[g]))
            parent = origin_distance(np.abs(tree.points[g - 1][tree.parents[g]]))
            assert np.all(child >= parent - 1e-12)

    def test_determinism_bitwise(self, deg2):
        t1 = enumerate_ball(deg2, 0.3, 9.0)
        t2 = enumerate_ball(deg2, 0.3, 9.0)
        assert t1.generations == t2.generations
        for g in range(t1.generations):
            assert np.array_equal(t1.points[g], t2.points[g])
            assert np.array_equal(t1.parents[g], t2.parents[g])

    @staticmethod
    def assert_critical_value_tree(F, c, size, caplog):
        """The tree of F(F(c)) at R = 6, for a critical point c of F, keeps
        the double pullback two generations up as two nodes of one parent,
        with subtrees of the same size generation by generation; the R = 7
        tree leaves no Aberth row moving."""
        z = F.eval(F.eval(c))
        tree = enumerate_ball(F, z, 6.0)
        assert tree.size() == size
        copies = np.flatnonzero(np.abs(tree.points[2] - c) < 1e-6)
        assert len(copies) == 2
        assert tree.parents[2][copies[0]] == tree.parents[2][copies[1]]
        subtrees, below = [[i] for i in copies], 0
        for g in range(3, tree.generations):
            subtrees = [np.flatnonzero(np.isin(tree.parents[g], s)) for s in subtrees]
            assert len(subtrees[0]) == len(subtrees[1])
            below += len(subtrees[0])
        assert below > 0
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="innerlab.roots"):
            enumerate_ball(F, z, 7.0)
        assert aberth_records(caplog)
        assert all(record.args[3] == 0 for record in aberth_records(caplog))

    def test_critical_value_dedup_deg2(self, deg2, caplog):
        # 2 - sqrt(3) is the critical point of deg2.
        self.assert_critical_value_tree(deg2, 2.0 - np.sqrt(3.0), 1121, caplog)

    @pytest.mark.parametrize("turn", [0.0, 0.3, 1.1, 2.5])
    def test_critical_value_dedup(self, turn, monkeypatch, caplog):
        # At degree >= 3 the solve is Aberth's, which splits the double
        # pullback by about 1e-7, and the tree must not depend on how the
        # default ring of starts is turned.
        turn_default_start(monkeypatch, turn)
        F, c = cubic_critical_point()
        self.assert_critical_value_tree(F, c, 1042, caplog)

    def test_one_debug_record(self, deg2, caplog):
        # One record per call, after the loop: generations, explored,
        # retained, R* and the retained nodes beyond R* that went unsolved;
        # every other retained node was solved for its 2 children.  A base
        # point beyond R explores only itself.
        c = 2.0 - np.sqrt(3.0)
        for z, R in ((deg2.eval(deg2.eval(c)), 7.0), (0.99, 1.0)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="innerlab.preimage"):
                tree = enumerate_ball(deg2, z, R)
            [record] = [r for r in caplog.records if r.msg == preimage._BALL_RECORD]
            unsolved = record.args[-1]
            assert record.args == (tree.generations, tree.explored, tree.size(),
                                   tree.expand_radius, unsolved)
            assert tree.explored == 1 + 2 * (tree.size() - unsolved)
        assert record.args == (0, 1, 0, tree.expand_radius, 0)

    def test_explored_counts_solved_nodes(self, deg2):
        # 1 + 2 x 320,159 solved nodes of 427,153 retained; solving every
        # retained node explored 854,307.
        tree = enumerate_ball(deg2, 0.3, 13.0)
        assert (tree.size(), tree.explored) == (427153, 640319)
        assert tree.expand_radius == pytest.approx(12.712318, abs=1e-6)
        # The budget counts the same children.
        small = enumerate_ball(deg2, 0.3, 9.0)
        assert enumerate_ball(deg2, 0.3, 9.0, node_budget=small.explored).size() \
            == small.size()
        with pytest.raises(BudgetError):
            enumerate_ball(deg2, 0.3, 9.0, node_budget=small.explored - 1)

    @pytest.mark.parametrize("case", ["deg2", "critical", "square", "random",
                                      "deg2-ray", "packets"])
    def test_matches_per_child_loop(self, case, deg2, square, rng):
        # The last two are the sharp cases of R*: children that land on R
        # up to rounding, below parents at R* up to rounding.  They are
        # the deg2 trees of F(-tanh(R/2)), and z^2 from e^-1 at its packet
        # radii (criterion 5).
        c = 2.0 - np.sqrt(3.0)
        runs = {"deg2": [(deg2, 0.3, 8.0)],
                "critical": [(deg2, deg2.eval(deg2.eval(c)), 7.0)],
                "square": [(square, np.exp(-1.0), 8.0)],
                "random": [(random_centered_blaschke(rng), random_disk_point(rng), 6.0)],
                "deg2-ray": [(deg2, deg2.eval(-np.tanh(R / 2.0)), R)
                             for R in np.linspace(2.0, 14.0, 121)],
                "packets": [(square, np.exp(-1.0), packet_radius(2, n))
                            for n in range(1, 14)]}[case]
        for F, z, R in runs:
            tree = enumerate_ball(F, z, R)
            gens = per_child_ball(F, complex(z), R)
            assert tree.generations == len(gens)
            for g, (pts, par, br) in enumerate(gens):
                assert np.array_equal(tree.points[g], pts)
                assert np.array_equal(tree.parents[g], par)


class TestSchwarzPickBound:
    @staticmethod
    def bound_models(rng):
        for d in range(2, 9):
            for _ in range(10):
                a = (1.0 - 10.0 ** -rng.uniform(0.0, 6.0, d - 1)) \
                    * np.exp(2j * np.pi * rng.uniform(size=d - 1))
                yield InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()),
                                 zeros=(0j, *a))
        yield InnerModel.from_zeros(0, 0, 0, 0.5j, 0.5j)
        yield InnerModel.from_zeros(0, 0, 0.3 - 0.8j, 0.3 - 0.8j, 0.3 - 0.8j)
        yield InnerModel.from_zeros(0, 0.9, 0.999, 0.999, 0.999, 0.999)

    def test_bounds_the_modulus(self):
        # |F(w)| <= phi(|w|) to a few ulps, at radii up to 1 - 1e-14, on
        # models with zeros up to 1 - 1e-6 from the circle and repeated
        # zeros at 0 and elsewhere.
        rng = np.random.default_rng(7)
        for F in self.bound_models(rng):
            r = np.concatenate([rng.uniform(0.0, 1.0, 100),
                                1.0 - 10.0 ** -rng.uniform(0.0, 14.0, 100)])
            w = r * np.exp(2j * np.pi * rng.uniform(size=r.size))
            phi = 1.0 - preimage._schwarz_pick_gap(F, origin_distance(r))
            assert np.all(np.abs(F.eval(w)) <= phi + 8 * np.finfo(float).eps)

    @pytest.mark.parametrize("zeros, ray", [
        ((0, 0), 1.0), ((0, 0, 0), 1.0), ((0,) * 8, 1.0),
        ((0, 0.5), -1.0), ((0, 0.5j * np.exp(0.3j)), -1j * np.exp(0.3j))])
    def test_attained_on_power_maps_and_deg2_ray(self, zeros, ray):
        # Equality on z^n, and on z b_a along w = -r a/|a|.
        F = InnerModel.from_zeros(*zeros)
        r = np.concatenate([np.linspace(0.01, 0.99, 50), 1.0 - 10.0 ** -np.arange(2, 15)])
        phi = 1.0 - preimage._schwarz_pick_gap(F, origin_distance(r))
        assert np.max(np.abs(np.abs(F.eval(r * ray)) - phi)) < 1e-15

    def test_expand_radius(self, deg2):
        assert preimage._expand_radius(deg2, np.inf) == np.inf
        for R in (0.5, 3.0, 13.0, 20.0):
            assert 0.0 < preimage._expand_radius(deg2, R) < R


def height_residual(generation, z):
    """|sum of log(1/|w|) over a whole generation - log(1/|z|)|."""
    return abs(float(np.sum(np.log(1.0 / np.abs(generation))))
               - float(np.log(1.0 / abs(z))))


class TestSumOfHeights:
    def test_generation_zero(self, deg2):
        [gen0] = whole_generations(deg2, 0.3, 0)
        assert height_residual(gen0, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_power_map_two_generations(self, square):
        z = 0.37 + 0.11j
        assert height_residual(whole_generations(square, z, 2)[2], z) < 1e-10

    def test_deg2_four_generations_vs_oracle(self, deg2):
        gen4 = whole_generations(deg2, 0.3, 4)[4]
        assert height_residual(gen4, 0.3) < 1e-8
        # Brute-force oracle over the 16 leaves: iterate the explicit
        # quadratic w^2 - (1/2)(1+z) w + z = 0 via the companion matrix.
        level = [0.3 + 0j]
        for _ in range(4):
            level = [w for z in level
                     for w in np.roots([1.0, -0.5 * (1 + z), z])]
        oracle = sum(np.log(1.0 / np.abs(np.array(level))))
        got = float(np.sum(np.log(1.0 / np.abs(gen4))))
        assert got == pytest.approx(oracle, abs=1e-10)

    @staticmethod
    def assert_heights_with_multiplicity(F, c):
        """Generations 1-4 of the tree of F(F(c)), for a critical point c
        of F, are whole and keep the height identity, which counts the
        double pullback of generation 2 and its subtree twice."""
        z = F.eval(F.eval(c))
        gens = whole_generations(F, z, 4)
        assert [len(p) for p in gens] == [F.degree ** g for g in range(5)]
        for g in range(1, 5):
            assert height_residual(gens[g], z) < 1e-8

    def test_critical_value_deg2(self, deg2):
        self.assert_heights_with_multiplicity(deg2, 2.0 - np.sqrt(3.0))

    @pytest.mark.parametrize("turn", [0.0, 0.3, 1.1, 2.5])
    def test_critical_value_cubic(self, turn, monkeypatch):
        turn_default_start(monkeypatch, turn)
        self.assert_heights_with_multiplicity(*cubic_critical_point())

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_critical_value_random(self, degree):
        # Every critical point of a seeded model with zeros in |a| < 0.9.
        rng = np.random.default_rng(degree)
        zeros = 0.9 * np.sqrt(rng.uniform(size=degree - 1)) \
            * np.exp(2j * np.pi * rng.uniform(size=degree - 1))
        F = InnerModel.from_zeros(0, *zeros)
        crit = critical_points(F)
        assert len(crit) == degree - 1
        for c in crit:
            self.assert_heights_with_multiplicity(F, c)
