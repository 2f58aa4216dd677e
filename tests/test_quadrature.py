import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import innerlab
from innerlab._quadrature import (MAX_PANELS, _X21, _integrate,
                                  _rule)
from innerlab.distortion import radial_distortion_integral
from innerlab.errors import NumericalError, PreconditionError
from innerlab.innerfn import InnerModel
from innerlab.lyapunov import chi_quadrature
from innerlab.parabolic import HalfPlaneInner, chi_ell


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("call", [
    lambda tol: chi_quadrature(InnerModel.from_zeros(0, 0.5), tol),
    lambda tol: chi_quadrature(InnerModel.atom_map(0.0, 0.7), tol),
    lambda tol: chi_quadrature(InnerModel(zeros=(0j,)), tol),
    lambda tol: chi_ell(HalfPlaneInner(atoms=((0.0, 1.0),)), tol),
    lambda tol: chi_ell(HalfPlaneInner(beta=1.0), tol),
    lambda tol: radial_distortion_integral(InnerModel.from_zeros(0, 0.5), 1.0,
                                           "mu", 0.9, tol)],
    ids=["chi-quadrature", "chi-quadrature-atom-floor", "chi-quadrature-rotation",
         "chi-ell", "chi-ell-no-atoms", "radial-integral"])
def test_tolerance_must_be_positive_and_finite(call, tol):
    # Also where the tol is floored (atoms) or never reaches `_integrate`
    # (a rotation, a model without atoms).
    with pytest.raises(PreconditionError, match="tolerance must be positive"):
        call(tol)


class TestPanelRule:
    @pytest.mark.parametrize("degree", [0, 1, 7, 19])
    def test_exact_on_polynomials_up_to_19(self, rng, degree):
        # The 10-point rule is exact to degree 19, so both rules agree and
        # one panel converges in one round; the oracle is the antiderivative.
        P = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        a, b = -0.3, 1.2
        est, err, rounds, panels = _integrate(P, [(a, b)], 1e-12, 1e-13)
        exact = P.integ()(b) - P.integ()(a)
        assert (rounds, panels) == (1, 1)
        assert isinstance(est, float)
        assert abs(est - exact) <= 1e-12
        assert err <= 1e-12

    def test_degree_20_is_seen(self):
        P = np.polynomial.Polynomial([0.0] * 20 + [1.0])
        panel, _ = _rule(P, np.array([-1.0]), np.array([1.0]))
        assert panel[0, 1, 0] > 1e-6

    def test_vector_components_each_meet_tol(self):
        # Components of very different size: each meets max(atol, rtol |I|)
        # against its closed form.
        def f(x):
            return np.stack([1e3 * np.sin(x), np.exp(-x * x), np.sqrt(x),
                             1.0 / (1.0 + 100.0 * (x - 1.0) ** 2)], axis=-1)

        exact = np.array([1e3 * (1.0 - np.cos(3.0)),
                          0.5 * np.sqrt(np.pi) * math.erf(3.0),
                          2.0 * 3.0 ** 1.5 / 3.0,
                          (np.arctan(20.0) + np.arctan(10.0)) / 10.0])
        atol, rtol = 1e-10, 1e-12
        est, err, rounds, panels = _integrate(f, [(0.0, 3.0)], atol, rtol)
        tol = np.maximum(atol, rtol * np.abs(exact))
        assert est.shape == err.shape == (4,)
        assert np.all(err <= tol)
        assert np.all(np.abs(est - exact) <= tol)
        assert rounds > 1 and panels > 1

    def test_breaks_are_panel_edges(self):
        # A step on a break is exact in one round: the break is a panel
        # edge, and the jump between the interpolants there is not charged.
        f = lambda x: (x > 0.3).astype(float)  # noqa: E731
        est, err, rounds, panels = _integrate(f, [(0.0, 0.3), (0.3, 1.0)], 1e-12, 0.0)
        assert (rounds, panels) == (1, 2)
        assert est == pytest.approx(0.7, abs=1e-15) and err <= 1e-15


class TestHiddenStep:
    # A step at s inside [0.5, 1], between the panel's left end and its
    # outermost 21-point node, so the child's own rules read a constant
    # while its parent [0, 1] sees the step.  At frac = 0.75 of that width
    # [0.5, 0.75] sees it again; below one half it hides there too, and only
    # the jump between the interpolants of [0, 0.5] and [0.5, 1] at 0.5
    # shows it.  The oracle is 1 - s.
    @pytest.mark.parametrize("frac", [0.75, 0.3, 0.01])
    def test_step_hidden_in_child_end_region(self, frac):
        s = 0.5 + frac * 0.5 * (1.0 - np.max(_X21)) * 0.5
        f = lambda x: (x > s).astype(float)  # noqa: E731
        child, _ = _rule(f, np.array([0.5]), np.array([1.0]))
        assert child[0, 1, 0] == 0.0
        tol = 1e-9
        est, err, rounds, panels = _integrate(f, [(0.0, 1.0)], tol, 0.0)
        assert abs(est - (1.0 - s)) <= tol
        assert err <= tol and panels < MAX_PANELS

    def test_bump_seen_only_by_parent(self):
        # A bump of half-width 1e-3 at 0.5: the centre node of [0, 1] sees
        # it, no node of [0, 0.5] or [0.5, 1] does, and both children's
        # interpolants are 0 at 0.5, so only |Q(parent) - Q(left) - Q(right)|
        # keeps the children open until their children see it.
        eps = 1e-3
        f = lambda x: np.maximum(0.0, 1.0 - ((x - 0.5) / eps) ** 2)  # noqa: E731
        children, _ = _rule(f, np.array([0.0, 0.5]), np.array([0.5, 1.0]))
        assert not children.any()
        est, err, rounds, panels = _integrate(f, [(0.0, 1.0)], 1e-10, 0.0)
        assert abs(est - 4 * eps / 3) <= 1e-10 and err <= 1e-10


class TestPanelCap:
    def test_non_integrable_stops_at_cap(self, caplog):
        with caplog.at_level(logging.INFO, logger="innerlab.quadrature"):
            est, err, rounds, panels = _integrate(lambda x: 1.0 / x, [(0.0, 1.0)],
                                                  1e-9, 0.0)
        assert np.isfinite(est) and err > 1e-9
        assert panels == MAX_PANELS and rounds <= MAX_PANELS
        infos = [r for r in caplog.records if r.name == "innerlab.quadrature"
                 and r.levelno == logging.INFO]
        assert len(infos) == 1 and "panel cap" in infos[0].getMessage()

    def test_cap_is_per_piece(self):
        # The second piece converges at once; the first takes the room of
        # both.
        _, err, _, panels = _integrate(lambda x: 1.0 / x,
                                       [(0.0, 1.0), (2.0, 3.0)], 1e-9, 0.0)
        assert err > 1e-9 and panels == 2 * MAX_PANELS

    def test_non_finite_values_count_as_open(self, caplog):
        # NaN on a window wider than any gap between nodes of [0, 1]: the
        # error is inf, not NaN, so the failure is reported instead of
        # passing as converged.  The NaN panels are [0, 1], then [0, 0.5],
        # then both its halves, whose width has not fallen: the loop stops
        # in the third round.
        f = lambda x: np.where(np.abs(x - 0.25) < 0.05, np.nan, 1.0)  # noqa: E731
        with caplog.at_level(logging.INFO, logger="innerlab.quadrature"):
            _, err, rounds, panels = _integrate(f, [(0.0, 1.0)], 1e-9, 0.0)
        assert err == np.inf
        assert (rounds, panels) == (3, 3)
        infos = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.INFO]
        assert len(infos) == 1 and "non-finite" in infos[0]
        # Two atoms 1e-11 apart put nodes within 1e-13 of an atom, where
        # log |F'| is +inf, at every depth: chi_quadrature raises after
        # a few dozen panels rather than at the cap of its two pieces.
        caplog.clear()
        F = InnerModel(atoms=((1.0, 0.5), (1.0 + 1e-11, 0.5)))
        with caplog.at_level(logging.DEBUG, logger="innerlab.quadrature"):
            with pytest.raises(NumericalError):
                chi_quadrature(F)
        debug, = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug.args[2] <= 100 and debug.args[3] == np.inf

    @pytest.mark.parametrize("nan_hi", [1.0, 0.5])
    def test_interval_of_non_finite_values_stops_at_once(self, caplog, nan_hi):
        # NaN on all of [0, 1], or on [0, 0.5]: the NaN panels' width does
        # not fall in the second round, or in the third, though their count
        # doubles in every round.
        f = lambda x: np.where(x < nan_hi, np.nan, 1.0)  # noqa: E731
        with caplog.at_level(logging.INFO, logger="innerlab.quadrature"):
            _, err, rounds, _ = _integrate(f, [(0.0, 1.0)], 1e-9, 0.0)
        assert err == np.inf and rounds <= 3
        infos = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.INFO]
        assert len(infos) == 1 and "non-finite" in infos[0]

    def test_non_finite_panel_does_not_stall_other_pieces(self, caplog):
        # The NaN window on the first piece never clears.  The second
        # piece still needs refining, and gets it in the same rounds: from
        # the second call of f on, in as many rounds as it takes alone,
        # and no more once it meets tol.
        calls = []

        def f(x):
            calls.append(x)
            return np.where(np.abs(x - 0.25) < 0.05, np.nan, np.cos(20.0 * x))

        with caplog.at_level(logging.INFO, logger="innerlab.quadrature"):
            _, err, rounds, _ = _integrate(f, [(0.0, 1.0), (2.0, 3.0)], 1e-9, 0.0)
        assert err == np.inf and rounds == 3
        solo = _integrate(lambda x: np.cos(20.0 * x), [(2.0, 3.0)], 1e-9, 0.0)
        refined = [bool(np.any(x >= 2.0)) for x in calls[1:]]
        assert solo[2] == 2
        assert refined == [True] * (solo[2] - 1) + [False] * (rounds - solo[2])
        infos = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.INFO]
        assert len(infos) == 1 and "on piece [0, 1]" in infos[0]

    def test_non_finite_value_that_clears_is_refined(self):
        # log|x - 1/2| is -inf at the centre node of [0, 1] and finite at
        # every node of its halves: one bisection clears it and the loop
        # goes on to meet tol.  The oracle is log(1/2) - 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            est, err, _, panels = _integrate(lambda x: np.log(np.abs(x - 0.5)),
                                             [(0.0, 1.0)], 1e-9, 0.0)
        assert err <= 1e-9 and panels < MAX_PANELS
        assert abs(est - (math.log(0.5) - 1.0)) <= 1e-9


class TestPieces:
    PIECES = [(0.0, 0.7), (1.1, 2.0), (2.0, 3.5)]

    def test_sum_of_per_piece_calls(self):
        # x cos 8x, antiderivative (cos 8x + 8x sin 8x) / 64.
        f = lambda x: x * np.cos(8.0 * x)  # noqa: E731
        F = lambda x: (np.cos(8.0 * x) + 8.0 * x * np.sin(8.0 * x)) / 64.0  # noqa: E731
        tol = 1e-10
        est, err, _, _ = _integrate(f, self.PIECES, tol, 0.0)
        single = [_integrate(f, [p], tol, 0.0) for p in self.PIECES]
        exact = sum(F(b) - F(a) for a, b in self.PIECES)
        assert err <= tol and abs(est - exact) <= tol
        assert abs(est - sum(v[0] for v in single)) <= tol + sum(
            v[1] for v in single)

    def test_no_node_in_a_gap(self):
        # A peak at the gap's left end draws panels to it from both sides.
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 / (1e-4 + (x - 0.7) ** 2)

        _, err, rounds, _ = _integrate(f, self.PIECES, 1e-9, 0.0)
        x = np.concatenate(seen)
        assert err <= 1e-9 and rounds > 5
        assert np.all((x > 0.0) & (x < 3.5))
        assert not np.any((x >= 0.7) & (x <= 1.1))

    def test_jump_across_a_gap_not_charged(self):
        # f is 0 on the first piece and 1 on the second: both rules are
        # exact, and the interpolants' jump between the pieces is no error.
        f = lambda x: (x > 1.0).astype(float)  # noqa: E731
        est, err, rounds, panels = _integrate(f, [(0.0, 0.5), (1.5, 2.0)],
                                              1e-12, 0.0)
        assert (rounds, panels) == (1, 2)
        assert est == pytest.approx(0.5, abs=1e-15) and err == 0.0

    # Values and errors of chi_quadrature and chi_ell when they integrated
    # over a list of breaks instead of a list of pieces (float.hex), with
    # |F'| the column sum of the Poisson terms that gap_ratio reads.
    CHI = [((), ((0.0, 0.7),), 1.0, "0x1.588c2d91067fep-2", "0x1.85759752e3aeep-34"),
           ((0j, 0.5 + 0j), (), 1.0, "0x1.3f641e435ce7ap-1", "0x1.35a855e612767p-35"),
           ((0j,), ((0.3, 0.4), (2.0, 0.8), (4.5, 0.2)), 1.0,
            "0x1.20345821ef73bp+1", "0x1.505a712a37ebap-34"),
           ((0j, 0.3 + 0.5j, -0.7 + 0.1j, 0.2 - 0.8j, -0.4 - 0.4j, 0.85 + 0j), (),
            0.6 + 0.8j, "0x1.b9782fb233628p+0", "0x1.7276ffced4022p-34")]
    ELL = [("beta=0\natom=0,1\n", "0x1.921fb5436fe72p+2"),
           ("beta=0.5\natom=0,1\natom=2,0.3\natom=-1.5,2\n",
            "0x1.93da0038ddce9p+4")]

    @pytest.mark.parametrize("zeros, atoms, rotation, value, error", CHI)
    def test_chi_quadrature_bit_identical(self, zeros, atoms, rotation, value,
                                          error):
        est = chi_quadrature(InnerModel(rotation=rotation, zeros=zeros,
                                        atoms=atoms))
        assert (est.value, est.error) == (float.fromhex(value),
                                          float.fromhex(error))

    @pytest.mark.parametrize("text, value", ELL)
    def test_chi_ell_bit_identical(self, text, value):
        assert chi_ell(HalfPlaneInner.from_text(text)) == float.fromhex(value)


def test_package_imports_no_scipy():
    code = ("import sys, innerlab, innerlab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(innerlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
