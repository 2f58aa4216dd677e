import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import innerlab
from innerlab._quadrature import MAX_PANELS, _X21, _integrate, _rule


class TestPanelRule:
    @pytest.mark.parametrize("degree", [0, 1, 7, 19])
    def test_exact_on_polynomials_up_to_19(self, rng, degree):
        # The 10-point rule is exact to degree 19, so both rules agree and
        # one panel converges in one round; the oracle is the antiderivative.
        P = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        a, b = -0.3, 1.2
        est, err, rounds, panels = _integrate(P, [a, b], 1e-12, 1e-13)
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
        est, err, rounds, panels = _integrate(f, [0.0, 3.0], atol, rtol)
        tol = np.maximum(atol, rtol * np.abs(exact))
        assert est.shape == err.shape == (4,)
        assert np.all(err <= tol)
        assert np.all(np.abs(est - exact) <= tol)
        assert rounds > 1 and panels > 1

    def test_breaks_are_panel_edges(self):
        # A step on a break is exact in one round: the break is a panel
        # edge, and the jump between the interpolants there is not charged.
        f = lambda x: (x > 0.3).astype(float)  # noqa: E731
        est, err, rounds, panels = _integrate(f, [0.0, 0.3, 1.0], 1e-12, 0.0)
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
        est, err, rounds, panels = _integrate(f, [0.0, 1.0], tol, 0.0)
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
        est, err, rounds, panels = _integrate(f, [0.0, 1.0], 1e-10, 0.0)
        assert abs(est - 4 * eps / 3) <= 1e-10 and err <= 1e-10


class TestPanelCap:
    def test_non_integrable_stops_at_cap(self, caplog):
        with caplog.at_level(logging.INFO, logger="innerlab.quadrature"):
            est, err, rounds, panels = _integrate(lambda x: 1.0 / x, [0.0, 1.0],
                                                  1e-9, 0.0)
        assert np.isfinite(est) and err > 1e-9
        assert panels == MAX_PANELS and rounds <= MAX_PANELS
        infos = [r for r in caplog.records if r.name == "innerlab.quadrature"
                 and r.levelno == logging.INFO]
        assert len(infos) == 1 and "panel cap" in infos[0].getMessage()

    def test_non_finite_values_count_as_open(self):
        # NaN on a window wider than any gap between nodes of [0, 1]: the
        # error is inf, not NaN, so the loop refines to the cap and reports
        # the failure instead of passing it as converged.
        f = lambda x: np.where(np.abs(x - 0.25) < 0.05, np.nan, 1.0)  # noqa: E731
        _, err, _, panels = _integrate(f, [0.0, 1.0], 1e-9, 0.0)
        assert err == np.inf and panels == MAX_PANELS


def test_package_imports_no_scipy():
    code = ("import sys, innerlab, innerlab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(innerlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
