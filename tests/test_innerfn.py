import math

import numpy as np
import pytest

from conftest import Composed, random_centered_blaschke, random_disk_point
from innerlab.errors import DomainError, PreconditionError
from innerlab.hypgeo import disk_distance
from innerlab import innerfn
from innerlab.innerfn import InnerModel, frostman_shift


class TestConstruction:
    def test_rejects_outside_zero(self):
        with pytest.raises(DomainError):
            InnerModel(zeros=(1.2,))

    def test_rejects_nonunimodular_rotation(self):
        with pytest.raises(PreconditionError):
            InnerModel(rotation=0.5, zeros=(0j,))

    def test_rejects_degenerate_model(self):
        with pytest.raises(PreconditionError):
            InnerModel()

    def test_rejects_nonpositive_atom_weight(self):
        with pytest.raises(PreconditionError):
            InnerModel(atoms=((0.0, -1.0),))

    @pytest.mark.parametrize("kwargs", [
        {"rotation": complex(math.nan, 0.0), "zeros": (0j,)},
        {"zeros": (0j, complex(math.nan, 0.0))},
        {"zeros": (complex(0.0, math.nan),)},
        {"atoms": ((math.nan, 1.0),)},
        {"atoms": ((math.inf, 1.0),)},
        {"atoms": ((-math.inf, 1.0),)},
        {"atoms": ((0.0, math.nan),)},
        {"atoms": ((0.0, math.inf),)}],
        ids=["rotation-nan", "zero-re-nan", "zero-im-nan", "angle-nan",
             "angle-inf", "angle-minus-inf", "weight-nan", "weight-inf"])
    def test_rejects_non_finite(self, kwargs):
        # NaN fails no range test written as a rejection (|z| >= 1), and an
        # infinite angle turns to NaN mod 2 pi.  An infinite rotation or
        # zero, and a weight of -inf, fail the range tests themselves.
        with pytest.raises(PreconditionError):
            InnerModel(**kwargs)

    def test_rotation_flag(self):
        assert InnerModel(rotation=1j, zeros=(0j,)).is_rotation
        assert not InnerModel.power_map(2).is_rotation

    def test_centered_flag(self):
        assert InnerModel.from_zeros(0, 0.5).centered
        assert not InnerModel.from_zeros(0.5).centered

    def test_unimodular_constant(self, rng):
        # Scaling by 2^600 is exact: normal zeros get |a|/a bit for bit,
        # subnormal ones a constant of modulus 1 (|a|/a is off by ~1e-11).
        mods = 10.0 ** rng.uniform(-300.0, 0.0, 20000)
        for a in (mods * np.exp(2j * np.pi * rng.uniform(size=mods.size))).tolist():
            assert innerfn._unimodular(a) == abs(a) / a
        for a in (1.573364814e-313 * (1 - 1j), 5e-324j, -3e-320 + 1e-310j):
            assert abs(abs(innerfn._unimodular(a)) - 1.0) <= 2.3e-16


class TestEval:
    def test_power_map(self, square):
        assert square.eval(0.5) == pytest.approx(0.25)

    def test_zero_of_model(self, deg2):
        assert deg2.eval(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_atom_at_origin(self):
        F = InnerModel.atom_map(0.0, 1.0)
        assert F.eval(0.0) == pytest.approx(np.exp(-1.0))

    def test_atom_base_point_rejected(self):
        F = InnerModel.atom_map(0.0, 1.0)
        with pytest.raises(DomainError):
            F.eval(1.0 + 0j)

    def test_boundary_modulus_one(self, rng):
        F = random_centered_blaschke(rng)
        zeta = np.exp(1j * rng.uniform(0, 2 * np.pi, size=32))
        assert np.max(np.abs(np.abs(F.eval(zeta)) - 1.0)) < 1e-12

    def test_schwarz_contraction(self, rng):
        for _ in range(20):
            F = random_centered_blaschke(rng)
            z = random_disk_point(rng)
            assert disk_distance(0, F.eval(z)) <= disk_distance(0, z) + 1e-10

    def test_winding_number(self, rng):
        # Argument principle on a fine boundary grid: degree-d winding.
        F = random_centered_blaschke(rng, rotate=False)
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        vals = F.eval(np.exp(1j * theta))
        winding = np.round(np.sum(np.diff(np.unwrap(np.angle(
            np.append(vals, vals[0]))))) / (2 * np.pi))
        assert int(winding) == F.degree


class TestDeriv:
    def test_power_map(self, square):
        assert square.deriv(0.5) == pytest.approx(1.0)
        assert InnerModel.power_map(3).deriv(0.0) == pytest.approx(0.0)

    def test_deg2_at_origin(self, deg2):
        # b_a convention (|a|/a)(a-z)/(1-conj(a) z) makes F'(0) = +1/2;
        # the unnormalized factor convention flips the sign.
        assert deg2.deriv(0.0) == pytest.approx(0.5)

    def test_against_central_differences(self, rng):
        for _ in range(10):
            F = random_centered_blaschke(rng)
            if rng.uniform() < 0.5:
                F = InnerModel(rotation=F.rotation, zeros=F.zeros,
                               atoms=((rng.uniform(0, 2 * np.pi), 0.7),))
            z = random_disk_point(rng, rmax=0.7)
            h = 1e-5
            fd = (F.eval(z + h) - F.eval(z - h)) / (2 * h)
            fd2 = (F.eval(z + 1j * h) - F.eval(z - 1j * h)) / (2j * h)
            d = F.deriv(z)
            if abs(d) > 1e-6:
                assert abs(fd - d) / abs(d) < 1e-8
                assert abs(fd2 - d) / abs(d) < 1e-8


class TestEvalDerivPass:
    """`_eval_deriv`: F and F' from one pass over the factors, bit for bit
    `eval` and `deriv`, in one block and across blocks."""

    @staticmethod
    def bits(x):
        return np.asarray(x).view(np.uint64)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_bit_identical_to_eval_and_deriv(self, d, rng):
        # Origin zeros first (factor rows indexed by slices) and shuffled
        # among the others (by index arrays).
        for origin, shuffled in [(k, s) for k in sorted({0, 1, d // 2, d})
                                 for s in (False, True)]:
            moved = 0.95 * np.sqrt(rng.uniform(size=d - origin)) \
                * np.exp(2j * np.pi * rng.uniform(size=d - origin))
            zeros = np.array((0j,) * origin + tuple(moved))
            atoms = ((rng.uniform(0, 2 * np.pi), 0.7),) if origin == d // 2 else ()
            F = InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()), atoms=atoms,
                           zeros=tuple(rng.permutation(zeros) if shuffled else zeros))
            for n in (2, F._block, F._block + 1, 3 * F._block):
                z = 0.99 * np.sqrt(rng.uniform(size=n)) \
                    * np.exp(2j * np.pi * rng.uniform(size=n))
                f, fprime = F._eval_deriv(z)
                assert np.array_equal(self.bits(f), self.bits(F.eval(z)))
                assert np.array_equal(self.bits(fprime), self.bits(F.deriv(z)))
            w = z[:2 * (n // 2)].reshape(-1, 2)
            f, fprime = F._eval_deriv(w)
            assert f.shape == fprime.shape == w.shape
            assert np.array_equal(self.bits(f), self.bits(F.eval(w)))
            assert np.array_equal(self.bits(fprime), self.bits(F.deriv(w)))


class TestBoundaryDeriv:
    def test_power_map(self, square):
        assert square.boundary_deriv_modulus(0.7) == pytest.approx(2.0)
        out = square.boundary_deriv_modulus(np.linspace(0, 6, 6).reshape(2, 3))
        assert out.shape == (2, 3)
        assert np.allclose(out, 2.0, rtol=1e-14)

    def test_deg2_hand_value(self, deg2):
        # (1-0)/1 + (1-0.25)/|1-0.5|^2 = 1 + 3.
        assert deg2.boundary_deriv_modulus(0.0) == pytest.approx(4.0)
        assert deg2.boundary_deriv_modulus(1 + 0j) == pytest.approx(4.0)
        with pytest.raises(PreconditionError):
            deg2.boundary_deriv_modulus(np.array([1.0 + 0j, 0.9 + 0j]))

    def test_atom_point_mass_term(self):
        # Single atom at 1 with weight 1, evaluated at -1: the singular
        # term alone, 2*1/|{-1}-1|^2 = 1/2; direct differentiation of
        # exp(-(1+z)/(1-z)) confirms it.
        F = InnerModel.atom_map(0.0, 1.0)
        assert F.boundary_deriv_modulus(np.pi) == pytest.approx(0.5)
        h = 1e-7
        z = -1 + 0j
        fd = abs(F.eval(z + h) - F.eval(z - h)) / (2 * h)
        assert fd == pytest.approx(0.5, rel=1e-6)

    def test_atom_base_is_infinite(self):
        F = InnerModel.atom_map(0.3, 1.0)
        assert F.boundary_deriv_modulus(0.3) == np.inf
        out = F.boundary_deriv_modulus(np.array([1.0, 0.3, 0.3 + np.pi]))
        assert np.isinf(out).tolist() == [False, True, False]
        assert out[2] == pytest.approx(0.5)

    def test_radial_limit_richardson(self, rng):
        for _ in range(20):
            F = random_centered_blaschke(rng)
            theta = rng.uniform(0, 2 * np.pi)
            exact = F.boundary_deriv_modulus(theta)
            thetas = theta + np.linspace(0, 2 * np.pi, 8).reshape(2, 4)
            scalar = np.array([[F.boundary_deriv_modulus(t) for t in row]
                               for row in thetas])
            for arg in (thetas, np.exp(1j * thetas)):
                out = F.boundary_deriv_modulus(arg)
                assert out.shape == thetas.shape
                assert np.all(np.abs(out - scalar) <= 1e-14 * scalar)
            vals = np.array([abs(F.deriv((1 - 10.0 ** -k) * np.exp(1j * theta)))
                             for k in (3, 4, 5, 6)])
            for lvl in range(1, 4):
                vals = (10.0 ** lvl * vals[1:] - vals[:-1]) / (10.0 ** lvl - 1)
            assert abs(vals[0] - exact) / exact < 1e-4

    def test_ahern_clark_radial_bound(self, rng):
        for _ in range(50):
            F = random_centered_blaschke(rng)
            theta = rng.uniform(0, 2 * np.pi)
            r = rng.uniform(0, 1)
            bound = 4.0 * F.boundary_deriv_modulus(theta)
            assert abs(F.deriv(r * np.exp(1j * theta))) <= bound + 1e-9

    def test_centered_exceeds_one(self, rng):
        F = random_centered_blaschke(rng)
        for theta in rng.uniform(0, 2 * np.pi, size=16):
            assert F.boundary_deriv_modulus(theta) > 1.0


class TestGapRatio:
    def test_matches_naive_in_the_bulk(self, rng, deg2):
        z = random_disk_point(rng, rmax=0.8)
        naive = (1 - abs(z) ** 2) / (1 - abs(deg2.eval(z)) ** 2)
        assert deg2.gap_ratio(z) == pytest.approx(naive, rel=1e-12)

    def test_boundary_limit(self, deg2):
        zeta = np.exp(0.3j)
        assert deg2.gap_ratio(zeta) == pytest.approx(
            1.0 / deg2.boundary_deriv_modulus(0.3), rel=1e-13)

    @pytest.mark.parametrize("name", ["deg2", "seeded_d6", "three_atoms"])
    def test_circle_value_is_one_over_boundary_modulus(self, deg2, name):
        # At |z| == 1.0 both read the column sum of the same Poisson terms.
        F = deg2 if name == "deg2" else ORACLE_MODELS[name]()
        z = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=4000))
        z = z[np.abs(z) == 1.0]
        assert len(z) > 1000
        assert np.array_equal(F.gap_ratio(z), 1.0 / F.boundary_deriv_modulus(z))

    def test_atom_model(self):
        F = InnerModel.atom_map(0.0, 0.8)
        z = 0.5j
        naive = (1 - abs(z) ** 2) / (1 - abs(F.eval(z)) ** 2)
        assert F.gap_ratio(z) == pytest.approx(naive, rel=1e-11)

    @pytest.mark.parametrize("model", [
        InnerModel.from_zeros(0, 0.5),
        InnerModel(zeros=(0j, 0.5), atoms=((1.0, 0.7),)),
    ], ids=["deg2", "atom"])
    def test_finite_next_to_a_zero(self, model):
        # Within 1e-8 of the zero 0.5 the Poisson term times 1 - |z|^2
        # rounds above 1 at some points (NaN from log1p, unclamped); there
        # |F|^2 < 1e-15, so the naive quotient is exact to rounding.
        z = 0.5 + np.linspace(-1e-8, 1e-8, 2001) + 0j
        naive = (1 - np.abs(z) ** 2) / (1 - np.abs(model.eval(z)) ** 2)
        assert np.max(np.abs(model.gap_ratio(z) / naive - 1)) < 1e-14

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("model", [
        InnerModel.from_zeros(0, 0.5),
        InnerModel.from_zeros(0, 0.3 + 0.4j, -0.6j),
        InnerModel(zeros=(0j, 0.2), atoms=((1.0, 0.7),)),
    ], ids=["deg2", "deg3", "atom"])
    def test_mpmath_oracle_near_circle(self, model, eps):
        # The naive quotient loses all digits at 1 - |z| = 1e-12; a
        # 50-digit evaluation of F factor by factor does not.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        angles = np.random.default_rng(7).uniform(0, 2 * np.pi, size=20)
        zs = (1.0 - eps) * np.exp(1j * angles)

        def reference(z):
            z = mp.mpc(z.real, z.imag)
            F = mp.mpc(1)
            for a in model.zeros:
                a = mp.mpc(a.real, a.imag)
                F *= z if a == 0 else (a - z) / (1 - mp.conj(a) * z)
            for ang, w in model.atoms:
                zeta = mp.expj(mp.mpf(ang))
                F *= mp.exp(-w * (zeta + z) / (zeta - z))
            return (1 - abs(z) ** 2) / (1 - abs(F) ** 2)

        ref = np.array([float(reference(z)) for z in zs])
        got = model.gap_ratio(zs)
        assert np.max(np.abs(got - ref) / ref) < 1e-12


def _seeded_model(seed, degree):
    """A centered degree-`degree` model with seeded zeros and rotation."""
    rng = np.random.default_rng(seed)
    zeros = [0j] + list(0.9 * np.sqrt(rng.uniform(size=degree - 1))
                        * np.exp(2j * np.pi * rng.uniform(size=degree - 1)))
    return InnerModel(rotation=np.exp(2j * np.pi * rng.uniform()),
                      zeros=tuple(zeros))


# Built on demand, so that a test can set the block size first.
ORACLE_MODELS = {
    "truncation_K12": lambda: InnerModel.from_zeros(
        *[1.0 - 2.0 ** -k for k in range(1, 13)]),
    "seeded_d6": lambda: _seeded_model(61, 6),
    "three_atoms": lambda: InnerModel(
        rotation=np.exp(0.4j), zeros=(0j, 0.3 + 0.2j),
        atoms=((0.5, 0.7), (2.5, 0.3), (4.0, 1.2))),
}


class TestMpmathCoreOracle:
    """eval, deriv, gap_ratio and boundary_deriv_modulus against a 50-digit
    evaluation of the same model factor by factor, near the circle, on
    scalar, 1-d and 2-d inputs and across block seams."""

    TOL = 1e-13

    @staticmethod
    def _reference(model, zs):
        """(F, F', gap ratio, |F'| at z/|z|) for each point of zs."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        zeros = [mp.mpc(a.real, a.imag) for a in model.zeros]
        atoms = [(mp.expj(mp.mpf(ang)), mp.mpf(w)) for ang, w in model.atoms]
        rot = mp.mpc(model.rotation.real, model.rotation.imag)
        rot /= abs(rot)  # unimodular, as the gap ratio assumes
        out = []
        for z in np.ravel(zs):
            z = mp.mpc(z.real, z.imag)
            zeta = z / abs(z)
            val, logd, dmod = rot, mp.mpc(0), mp.mpf(0)
            for a in zeros:
                if a == 0:
                    val *= z
                    logd += 1 / z
                else:
                    val *= abs(a) / a * (a - z) / (1 - mp.conj(a) * z)
                    logd += (abs(a) ** 2 - 1) / ((a - z) * (1 - mp.conj(a) * z))
                dmod += (1 - abs(a) ** 2) / abs(zeta - a) ** 2
            for zk, w in atoms:
                val *= mp.exp(-w * (zk + z) / (zk - z))
                logd += -2 * w * zk / (zk - z) ** 2
                dmod += 2 * w / abs(zeta - zk) ** 2
            out.append((complex(val), complex(val * logd),
                        float((1 - abs(z) ** 2) / (1 - abs(val) ** 2)),
                        float(dmod)))
        return [np.reshape([r[i] for r in out], np.shape(zs)) for i in range(4)]

    def _worst(self, model, zs):
        """Largest relative error over the four quantities, in units of
        the condition number 1 + sum 2 w_k/|zeta_k - z| of the atom
        exponentials (1 without atoms)."""
        ref = self._reference(model, zs)
        got = [model.eval(zs), model.deriv(zs), model.gap_ratio(zs),
               model.boundary_deriv_modulus(np.asarray(zs) / np.abs(zs))]
        cond = 1.0 + sum(2.0 * w / np.abs(np.exp(1j * ang) - np.asarray(zs))
                         for ang, w in model.atoms)
        worst = 0.0
        for g, r in zip(got, ref):
            assert np.shape(g) == np.shape(zs)
            worst = max(worst, float(np.max(np.abs(g - r) / np.abs(r) / cond)))
        return worst

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_near_circle(self, name, eps):
        model = ORACLE_MODELS[name]()
        angles = np.random.default_rng(17).uniform(0, 2 * np.pi, size=24)
        zs = (1.0 - eps) * np.exp(1j * angles)
        worst = max(self._worst(model, zs[0]), self._worst(model, zs),
                    self._worst(model, zs.reshape(4, 6)))
        assert worst < self.TOL

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_block_seams(self, name, monkeypatch):
        # Blocks of at most B = 5 to 12 points: 50 points run in five or
        # more blocks.  B (B - 1) + 1 points run in B blocks whose sizes
        # differ by at most one and must match one block bit for bit (a
        # one-point last block would round differently).
        whole = ORACLE_MODELS[name]()
        monkeypatch.setattr(innerfn, "BLOCK_ENTRIES", 60)
        model = ORACLE_MODELS[name]()
        assert model._block <= 12
        rng = np.random.default_rng(23)
        zs = (1.0 - 10.0 ** -rng.uniform(1, 10, size=50)) \
            * np.exp(2j * np.pi * rng.uniform(size=50))
        assert self._worst(model, zs) < self.TOL
        n = model._block * (model._block - 1) + 1
        assert whole._block >= n
        zs = 0.99 * np.sqrt(rng.uniform(size=n)) \
            * np.exp(2j * np.pi * rng.uniform(size=n))
        for method in ("eval", "deriv", "gap_ratio"):
            np.testing.assert_array_equal(getattr(model, method)(zs),
                                          getattr(whole, method)(zs))
        np.testing.assert_array_equal(
            model.boundary_deriv_modulus(zs / np.abs(zs)),
            whole.boundary_deriv_modulus(zs / np.abs(zs)))


class TestFrostman:
    def test_zero_shift_returns_model(self, square):
        assert frostman_shift(square, 0.0) is square

    def test_shift_values(self, square):
        Fa = frostman_shift(square, 0.25)
        assert Fa.eval(0.5) == pytest.approx(0.0, abs=1e-15)
        assert Fa.eval(0.0) == pytest.approx(-0.25)

    def test_shift_stays_in_disk(self, rng, deg2):
        Fa = frostman_shift(deg2, 0.3 - 0.2j)
        for _ in range(20):
            assert abs(Fa.eval(random_disk_point(rng))) < 1.0

    def test_shift_derivative_chain_rule(self, deg2):
        Fa = frostman_shift(deg2, 0.2 + 0.1j)
        z = 0.4 - 0.3j
        h = 1e-6
        fd = (Fa.eval(z + h) - Fa.eval(z - h)) / (2 * h)
        assert fd == pytest.approx(Fa.deriv(z), rel=1e-8)

    def test_composed_map(self, square, deg2):
        # The composition oracle of the distortion tests.
        comp = Composed(square, deg2)
        z = 0.3 + 0.2j
        assert comp.eval(z) == pytest.approx(square.eval(deg2.eval(z)))
        h = 1e-6
        fd = (comp.eval(z + h) - comp.eval(z - h)) / (2 * h)
        assert fd == pytest.approx(comp.deriv(z), rel=1e-7)


class TestIterate:
    def test_identity_at_zero_steps(self, deg2):
        assert deg2.iterate(0.3, 0) == pytest.approx(0.3)

    def test_power_map_iterates(self, square):
        assert square.iterate(0.9, 3) == pytest.approx(0.9 ** 8)

    def test_hits_fixed_zero(self, deg2):
        assert deg2.iterate(0.5, 2) == pytest.approx(0.0, abs=1e-14)

    def test_negative_rejected(self, deg2):
        with pytest.raises(PreconditionError):
            deg2.iterate(0.3, -1)


class TestSerialization:
    def test_roundtrip_bit_exact(self, rng):
        for _ in range(20):
            F = random_centered_blaschke(rng)
            if rng.uniform() < 0.5:
                F = InnerModel(rotation=F.rotation, zeros=F.zeros,
                               atoms=((rng.uniform(0, 2 * np.pi),
                                       rng.uniform(0.1, 3.0)),))
            G = InnerModel.from_text(F.to_text())
            assert G.rotation == F.rotation
            assert G.zeros == F.zeros
            assert G.atoms == F.atoms

    def test_format_lines(self, deg2):
        text = deg2.to_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("rotation=")
        assert lines[1] == "zero=0,0"
        assert lines[2].startswith("zero=0.5")

    def test_bad_line_rejected(self):
        with pytest.raises(PreconditionError):
            InnerModel.from_text("zero=0.1\n")
        with pytest.raises(PreconditionError):
            InnerModel.from_text("blub=0.1,0.2\n")

