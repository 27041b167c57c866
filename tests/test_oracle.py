import math

import numpy as np
import pytest

from besselrad import closedform, oracle, specfun
from besselrad.closedform import ThreeBesselSpec
from besselrad.oracle import (
    NonConvergence,
    integrate_q_definition,
    integrate_single_bessel,
    integrate_three_bessel_regularized,
    integrate_two_bessel,
)

QUARTER_LOG5 = 0.25 * math.log(5.0)


class TestTwoBessel:
    def test_elementary_log_case(self):
        q = integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-10)
        assert q.value == pytest.approx(QUARTER_LOG5, rel=1e-10)
        assert q.converged
        assert abs(q.value - QUARTER_LOG5) <= 3 * q.abs_error_estimate

    def test_strong_damping_suppression(self):
        # value decays like 1/alpha^2; elementary form pins it exactly
        q = integrate_two_bessel(1, 0, 0, 1.0, 1.0, 50.0, 1e-10)
        assert abs(q.value) < 1e-3
        assert q.value == pytest.approx(0.25 * math.log(2504.0 / 2500.0), rel=1e-9)

    def test_self_consistency_under_tightening(self):
        loose = integrate_two_bessel(3, 2, 2, 0.5, 2.0, 1.0, 1e-8)
        tight = integrate_two_bessel(3, 2, 2, 0.5, 2.0, 1.0, 5e-9)
        assert abs(loose.value - tight.value) <= loose.abs_error_estimate

    def test_tolerance_monotonicity(self):
        exact = QUARTER_LOG5
        d_loose = abs(integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-6).value - exact)
        d_tight = abs(integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-10).value - exact)
        assert d_tight <= d_loose + 1e-15

    def test_deterministic(self):
        a = integrate_two_bessel(2, 1, 1, 0.7, 1.3, 0.8, 1e-9)
        b = integrate_two_bessel(2, 1, 1, 0.7, 1.3, 0.8, 1e-9)
        assert a == b

    def test_error_honesty_on_elementary_cases(self):
        # integral r e^(-ar) j_0(k1 r) j_0(k2 r) dr has a closed log form
        for (k1, k2, alpha) in [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 2.0, 0.5)]:
            exact = 0.25 * math.log(((k1 + k2) ** 2 + alpha**2) / ((k1 - k2) ** 2 + alpha**2)) / (k1 * k2)
            q = integrate_two_bessel(1, 0, 0, k1, k2, alpha, 1e-10)
            assert abs(q.value - exact) <= 3 * q.abs_error_estimate

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setenv("BESSELRAD_PANEL_BUDGET", "200")
        with pytest.raises(NonConvergence):
            integrate_two_bessel(1, 0, 0, 1.0, 1.0, 0.05, 1e-12)

    def test_budget_env_override_parsing(self, monkeypatch):
        monkeypatch.setenv("BESSELRAD_PANEL_BUDGET", "not-a-number")
        with pytest.raises(ValueError):
            integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-8)

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-13)


class TestSingleBessel:
    @pytest.mark.parametrize("offset", [1, 2])
    @pytest.mark.parametrize("lambda3", [0, 1, 3, 6])
    def test_matches_closed_form(self, lambda3, offset):
        for (alpha, k3) in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
            exact = closedform.laplace_single_bessel(lambda3, alpha, k3, offset)
            q = integrate_single_bessel(lambda3, alpha, k3, offset, 1e-11)
            assert q.value == pytest.approx(exact, rel=1e-10)
            assert abs(q.value - exact) <= 3 * q.abs_error_estimate


class TestQDefinition:
    def test_elementary_log(self):
        q = integrate_q_definition(0, 0, 2.0, 1e-11)
        assert q.value == pytest.approx(math.log(3.0), rel=1e-11)

    def test_elementary_rational(self):
        q = integrate_q_definition(0, 1, 2.0, 1e-11)
        assert q.value == pytest.approx(2.0 / 3.0, rel=1e-11)

    @pytest.mark.parametrize("y", [1.001, 1.5, 4.0, 50.0])
    def test_cross_module_consistency(self, y):
        q = integrate_q_definition(1, 0, y, 1e-11)
        assert q.value == pytest.approx(2.0 * specfun.legendre_q(1, y), rel=1e-10)

    def test_severe_cancellation_regime(self):
        # large degree at large argument: the raw integrand oscillates ~1e20
        # above the value; the positive-form evaluation must still deliver
        q = integrate_q_definition(10, 6, 100.0, 1e-11)
        target = 2.0 / math.factorial(6) * specfun.paper_q_combination(10, 6, 100.0)
        assert q.value == pytest.approx(target, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integrate_q_definition(0, 0, 1.0)
        with pytest.raises(ValueError):
            integrate_q_definition(25, 0, 2.0)


class TestThreeBesselRegularized:
    def test_sine_product(self):
        q = integrate_three_bessel_regularized(ThreeBesselSpec(0, 0, 0, 1.0, 1.0, 1.0))
        assert q.value == pytest.approx(math.pi / 4, abs=1e-3)

    def test_outside_triangle(self):
        q = integrate_three_bessel_regularized(ThreeBesselSpec(0, 0, 0, 1.0, 1.0, 3.0))
        assert abs(q.value) < 1e-3

    def test_triangle_boundary(self):
        q = integrate_three_bessel_regularized(ThreeBesselSpec(0, 0, 0, 1.0, 1.0, 2.0))
        assert q.value == pytest.approx(math.pi / 16, abs=1e-2)

    def test_eps_list_validation(self):
        with pytest.raises(ValueError):
            integrate_three_bessel_regularized(
                ThreeBesselSpec(0, 0, 0, 1.0, 1.0, 1.0), eps_list=(0.1, 0.2)
            )

    def test_deterministic(self):
        spec = ThreeBesselSpec(1, 1, 2, 1.0, 1.0, 1.5)
        assert integrate_three_bessel_regularized(spec) == integrate_three_bessel_regularized(spec)


class TestKernelIdentity:
    def test_elementary_case(self):
        # integral k3/(k3^2+1) over [0, 2] = log(5)/2
        q = oracle.check_eq_2_6(0, 0, 1.0, 1.0, 1.0, 1e-11)
        assert q.value == pytest.approx(0.5 * math.log(5.0), rel=1e-10)
        # equals the closed-form right side at l3 = 0
        y = closedform.y_param(1.0, 1.0, 1.0)
        assert q.value == pytest.approx(specfun.paper_q_combination(0, 0, y), rel=1e-10)

    def test_degree_one(self):
        q = oracle.check_eq_2_6(1, 0, 1.0, 1.0, 1.0, 1e-11)
        y = closedform.y_param(1.0, 1.0, 1.0)
        assert q.value == pytest.approx(specfun.paper_q_combination(1, 0, y), rel=1e-9)

    def test_runs_for_any_degree_pair(self):
        # independent of the parent sum's selection rules
        q = oracle.check_eq_2_6(3, 1, 1.0, 1.0, 0.5, 1e-9)
        assert math.isfinite(q.value)


class TestDerivativeOrderIdentity:
    @pytest.mark.parametrize(
        "l,L,y0",
        [(0, 0, 2.0), (1, 0, 1.5), (2, 1, 3.0)],
    )
    def test_reproduces_lower_order(self, l, L, y0):
        q = oracle.check_eq_2_12(l, L, y0, 1e-8)
        target = specfun.paper_q_combination(l, L, y0)
        assert q.value == pytest.approx(target, rel=1e-7)


class TestOrderValidation:
    """The oracle checks orders and wavenumbers as the closed forms do."""

    @pytest.mark.parametrize("call", [
        lambda l: integrate_single_bessel(l(2), 1.0, 1.0, 1),
        lambda l: integrate_q_definition(l(2), l(1), 2.0),
        lambda l: oracle.check_eq_2_6(l(1), l(0), 1.0, 1.0, 1.0),
        lambda l: oracle.check_eq_2_12(l(0), l(0), 2.0),
    ])
    def test_numpy_integer_orders(self, call):
        assert call(np.int64) == call(int)

    @pytest.mark.parametrize("call", [
        lambda: integrate_single_bessel(51, 1.0, 1.0, 1),
        lambda: integrate_single_bessel(2, 1.0, math.inf, 1),
        lambda: integrate_q_definition(21, 0, 2.0),
        lambda: integrate_q_definition(0, 9, 2.0),
        lambda: oracle.check_eq_2_6(21, 0, 1.0, 1.0, 1.0),
        lambda: oracle.check_eq_2_6(0, 0, 1.0, -1.0, 1.0),
        lambda: oracle.check_eq_2_12(0, 13, 2.0),
        lambda: oracle.check_eq_2_12(1.0, 0, 2.0),
    ])
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()
