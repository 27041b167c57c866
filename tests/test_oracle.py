import dataclasses
import math
import sys
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besselrad import closedform, oracle, specfun
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
        # the first grid (195 evaluations) and the appended one (105) fit; refining them does not
        monkeypatch.setattr(oracle, "_BUDGET", 300)
        with pytest.raises(NonConvergence, match="budget of 300 evaluations exhausted"):
            integrate_two_bessel(8, 0, 0, 1.0, 1.0, 1.0, 1e-12)

    def test_budget_is_a_cap(self, monkeypatch):
        # the first grid (195 evaluations) fits; the first split would pass 200
        monkeypatch.setattr(oracle, "_BUDGET", 200)
        with pytest.raises(NonConvergence, match="budget of 200 evaluations exhausted"):
            integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-12)

    def test_budget_checked_before_the_grid(self, monkeypatch):
        # r_end = 40/alpha asks for a first grid of 12 733 panels, 190 995 evaluations
        points = []
        bessel = specfun.spherical_bessel_j_array
        monkeypatch.setattr(
            specfun, "spherical_bessel_j_array", lambda l, x: points.append(x.size) or bessel(l, x)
        )
        monkeypatch.setattr(oracle, "_BUDGET", 190_000)
        with pytest.raises(NonConvergence, match="grid of 1.27e\\+04 panels would exceed the budget"):
            integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1e-3)
        # 40/alpha overflows to inf
        with pytest.raises(NonConvergence, match="grid of inf panels would exceed the budget"):
            integrate_two_bessel(1, 0, 0, 1.0, 2.0, 1e-310)
        assert points == []

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, 1e-13)

    # every entry point that takes a tolerance refuses one it cannot reach
    @pytest.mark.parametrize("rel_tol", [1e-13, math.nan, math.inf])
    @pytest.mark.parametrize("integrate", [
        lambda tol: integrate_two_bessel(1, 0, 0, 1.0, 1.0, 1.0, tol),
        lambda tol: integrate_single_bessel(0, 1.0, 1.0, 1, tol),
        lambda tol: integrate_q_definition(0, 0, 2.0, tol),
        lambda tol: oracle.check_eq_2_6(0, 0, 1.0, 1.0, 1.0, tol),
        lambda tol: oracle.check_eq_2_12(0, 0, 2.0, tol),
    ])
    def test_unreachable_rel_tol(self, integrate, rel_tol):
        with pytest.raises(ValueError, match=r"rel_tol must be finite and >= 1e-12"):
            integrate(rel_tol)


class TestFloatRange:
    """Integrals whose integrand or tail bound leaves the float range get a typed refusal."""

    @pytest.mark.parametrize("args", [
        (200, 0, 0, 1.0, 1.0, 0.5),   # r^200 e^(-r/2) overflows past r ~ 38, in the first pass
        (160, 3, 3, 1.0, 1.0, 0.5),   # r^160 overflows past r ~ 85, r^160 e^(-r/2) past r ~ 124
    ])
    def test_non_finite_integrand_raises_at_once(self, args):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="integrand not finite"):
                integrate_two_bessel(*args)
        assert time.perf_counter() - start < 5.0

    def test_power_overflows_where_the_integrand_does_not(self):
        # r^120 overflows past r ~ 369, but r^120 e^(-r/2) peaks near 3e233 at r = 240;
        # mpmath quadrature at 30 digits gives 1.5568698834572434520e230
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate_two_bessel(120, 3, 3, 1.0, 1.0, 0.5)
        assert result.value == pytest.approx(1.5568698834572434520e230, rel=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 3, 8, 20])
    @pytest.mark.parametrize("alpha,r", [(0.05, 800.0), (0.5, 80.0), (2.0, 3.0)])
    def test_tail_bound_matches_exact_sum(self, m, alpha, r):
        # e^(-alpha r) sum_i m!/(m - i)! r^(m - i)/alpha^(i + 1), summed in rationals
        a, x = Fraction(alpha), Fraction(r)
        s = sum(Fraction(math.factorial(m), math.factorial(m - i)) * x ** (m - i) / a ** (i + 1)
                for i in range(m + 1))
        exact = math.exp(-alpha * r) * float(s) * (oracle._ENVELOPE / 1.5) ** 2
        assert oracle._radial_tail_bound(m + 2, alpha, (1.5, 1.5), r) == pytest.approx(exact, rel=1e-13)

    def test_tail_bound_past_float_range(self):
        # the sum's terms overflow a float here; the bound saturates instead of raising
        assert oracle._radial_tail_bound(400, 0.5, (1.0, 1.0), 80.0) == math.inf
        # the envelope (1.16/k)^2 overflows but the bound does not: 1.16^2 e^(-1000 + 400 ln 10)
        expected = math.exp(2 * math.log(oracle._ENVELOPE) - 1000.0 + 400.0 * math.log(10.0))
        assert oracle._radial_tail_bound(2, 1.0, (1e-200, 1e-200), 1000.0) == pytest.approx(expected, rel=1e-12)


def _scipy_gk15():
    """Nodes, Kronrod weights and Kronrod minus Gauss weights of scipy's qk15, ascending.

    scipy keeps the table inside `_quadrature_gk15`, so it is read through
    calls on [-1, 1]: the nodes from the integrand's arguments, each weight
    from the integral of the indicator of its node, and the difference of
    the two rules from the first argument of the norm.
    """
    from scipy.integrate._quad_vec import _quadrature_gk15

    nodes = []
    _quadrature_gk15(-1.0, 1.0, lambda x: nodes.append(x) or 0.0, abs)
    kronrod, difference = [], []
    for node in nodes:
        norms = []
        value, _, _ = _quadrature_gk15(
            -1.0, 1.0, lambda x, node=node: float(x == node), lambda v: norms.append(v) or abs(v)
        )
        kronrod.append(value)
        difference.append(norms[0])
    return nodes[::-1], kronrod[::-1], difference[::-1]


class TestKronrodRule:
    """The tabulated Gauss-Kronrod (7, 15) rule and what the oracle reports it spent."""

    def test_table_matches_scipy(self):
        nodes, kronrod, difference = _scipy_gk15()
        assert oracle._GK15_X.tolist() == nodes
        assert oracle._GK15_W[:, 0].tolist() == kronrod
        assert (oracle._GK15_W[:, 0] - oracle._GK15_W[:, 1]).tolist() == difference
        assert oracle._GK15_W[::2, 1].tolist() == [0.0] * 8

    @staticmethod
    def _counted(monkeypatch, *args):
        points = []
        bessel = specfun.spherical_bessel_j_array
        monkeypatch.setattr(
            specfun, "spherical_bessel_j_array", lambda l, x: points.append(x.size) or bessel(l, x)
        )
        return integrate_two_bessel(*args), sum(points)

    def test_evaluations_without_growth(self, monkeypatch):
        # r_end = 40/alpha already meets the tail bound: the panels are the
        # initial grid, each refinement step replacing one panel by two
        q, points = self._counted(monkeypatch, 1, 0, 0, 1.0, 1.0, 1.0, 1e-12)
        initial = int(oracle._panel_count(0.0, 40.0, math.pi, 8))
        splits = q.panels_used - initial
        assert (initial, splits) == (13, 4)
        assert q.evaluations == points / 2 == 15 * (initial + 2 * splits)
        assert q.truncation_radius == 40.0
        assert q.tail_bound == oracle._radial_tail_bound(1, 1.0, (1.0, 1.0), 40.0)
        assert q.tail_bound <= q.abs_error_estimate

    def test_evaluations_with_growth(self, monkeypatch):
        # r^8 needs the radius pushed from 40 to 60: panels on [40, 60] are appended
        q, points = self._counted(monkeypatch, 8, 0, 0, 1.0, 1.0, 1.0, 1e-10)
        assert q.truncation_radius == 60.0
        initial = int(oracle._panel_count(0.0, 40.0, math.pi, 8))
        appended = int(oracle._panel_count(40.0, 60.0, math.pi, 1))
        assert (initial, appended) == (13, 7)
        assert q.evaluations == points / 2 == 15 * (2 * q.panels_used - initial - appended)

    @pytest.mark.parametrize("args,reference", [
        # oracle_check-like points on all three routes; values from perfbench/reference.py
        ((1, 0, 0, 0.93, 0.51, 0.052), 1.2915760206140625),
        ((2, 0, 1, 1.12, 2.13, 0.057), 0.2572458194993329),
        ((3, 1, 0, 1.31, 0.72, 0.51), 1.0974634532462648),
        ((4, 3, 1, 1.84, 3.55, 1.93), -0.0008074169129235287),
    ])
    def test_against_reference(self, args, reference):
        q = integrate_two_bessel(*args, rel_tol=1e-8)
        assert q.converged
        assert abs(q.value - reference) <= 1e-8 * abs(reference)


def _outcome_bits(outcome):
    """Every field of a result as exact text, or an error's type and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return tuple(repr(v) for v in dataclasses.astuple(outcome))


def _alone(n, l1, l2, points, rel_tol):
    out = []
    for k1, k2, alpha in points:
        try:
            out.append(_outcome_bits(integrate_two_bessel(n, l1, l2, k1, k2, alpha, rel_tol)))
        except (ValueError, NonConvergence) as exc:
            out.append(_outcome_bits(exc))
    return out


class TestBatch:
    """`integrate_two_bessel_batch` gives each point the bits `integrate_two_bessel` gives it alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.sampled_from([(1, 0, 0), (2, 1, 1), (3, 2, 1), (2, 0, 1), (4, 3, 1)]),
        points=st.lists(
            st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.1, 2.0)), min_size=1, max_size=30
        ),
        rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
        # chunks of 16 panels: a batch spans many of them
        chunk=st.sampled_from([oracle._CHUNK, 16 * 15]),
    )
    def test_point_alone_equals_point_in_batch(self, order, points, rel_tol, chunk):
        n, l1, l2 = order
        with mock.patch.object(oracle, "_CHUNK", chunk):
            batch = oracle.integrate_two_bessel_batch(n, l1, l2, *zip(*points), rel_tol)
        assert [_outcome_bits(q) for q in batch] == _alone(n, l1, l2, points, rel_tol)

    @pytest.mark.parametrize("chunk", [oracle._CHUNK, 7 * 15])
    def test_panel_sums_do_not_depend_on_the_other_panels(self, chunk):
        # a panel's Kronrod value and error estimate, alone and among 300 panels of 5 integrals
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.0, 50.0, 300)
        hi = lo + rng.uniform(0.01, 3.0, 300)
        owner = rng.integers(0, 5, 300)
        k, a = rng.uniform(0.5, 2.0, 5), rng.uniform(0.05, 2.0, 5)
        panels = oracle._Panels(lambda x, o: np.sin(k[o] * x) * np.exp(-a[o] * x) / (1.0 + x), ["sums"] * 5)
        with mock.patch.object(oracle, "_CHUNK", chunk):
            together = panels._evaluate(owner, lo, hi)
        alone = [panels._evaluate(owner[i:i + 1], lo[i:i + 1], hi[i:i + 1]) for i in range(300)]
        assert together[0].tolist() == [value[0] for value, _ in alone]
        assert together[1].tolist() == [err[0] for _, err in alone]

    def test_batch_spans_chunks(self):
        # at alpha near 0.05 the first grids alone hold several chunks of nodes
        points = [(2.0, 1.9 - 0.01 * i, 0.05 + 0.01 * i) for i in range(30)]
        batch = oracle.integrate_two_bessel_batch(2, 1, 1, *zip(*points), 1e-8)
        assert sum(15 * int(oracle._panel_count(0.0, 40.0 / a, math.pi / 2.0, 8)) for *_, a in points) > 4 * oracle._CHUNK
        assert [_outcome_bits(q) for q in batch] == _alone(2, 1, 1, points, 1e-8)
        assert [_outcome_bits(q) for q in batch[::-1]] == _alone(2, 1, 1, points[::-1], 1e-8)

    @pytest.mark.parametrize("n,points,budget,message", [
        # r^200 e^(-r/2) overflows, as in TestFloatRange; at alpha 3 and 4 it does not
        (200, [(1.0, 1.0, 3.0), (1.0, 1.0, 0.5), (1.5, 1.0, 4.0)], None, "integrand not finite"),
        # the first grid of alpha = 1e-4 would pass the budget
        (1, [(1.0, 1.0, 1.0), (1.0, 2.0, 1e-4), (0.5, 1.5, 0.3)], None, "grid of 2.55e\\+05 panels"),
        # 600 evaluations are too few at alpha = 1 only
        (8, [(1.0, 0.5, 8.0), (1.0, 1.0, 1.0), (0.5, 0.5, 20.0), (1.0, 1.0, 10.0)], 600, "budget of 600"),
        # a point the quadrature refuses before it starts
        (1, [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (0.5, 1.5, 0.3)], None, "k2 must be positive"),
    ])
    def test_failing_point_leaves_the_others(self, monkeypatch, n, points, budget, message):
        if budget is not None:
            monkeypatch.setattr(oracle, "_BUDGET", budget)
        rel_tol = 1e-12 if budget else 1e-10
        batch = oracle.integrate_two_bessel_batch(n, 0, 0, *zip(*points), rel_tol)
        assert [_outcome_bits(q) for q in batch] == _alone(n, 0, 0, points, rel_tol)
        failed = [q for q in batch if isinstance(q, Exception)]
        assert len(failed) == 1
        with pytest.raises(type(failed[0]), match=message):
            raise failed[0]

    def test_order_errors_raise(self):
        with pytest.raises(ValueError, match="lambda1=51 exceeds"):
            oracle.integrate_two_bessel_batch(2, 51, 0, [1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            oracle.integrate_two_bessel_batch(2, 1, 0, [1.0, 2.0], [1.0], [1.0])
        assert oracle.integrate_two_bessel_batch(2, 1, 0, [], [], []) == []

    def test_unreachable_rel_tol_is_each_points_error(self):
        # as alone: a point's own error comes before the tolerance's
        batch = oracle.integrate_two_bessel_batch(1, 0, 0, [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1e-13)
        assert [_outcome_bits(q) for q in batch] == _alone(1, 0, 0, [(1.0, 1.0, 1.0), (0.0, 1.0, 1.0)], 1e-13)
        assert "rel_tol" in str(batch[0]) and "k1" in str(batch[1])


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

    @pytest.mark.parametrize("L,M,y", [
        (0, 0, 1e8), (0, 0, 1e12), (0, 0, 1e15), (2, 1, 1e15), (0, 0, 1e16), (2, 1, 1e20),
    ])
    def test_large_argument(self, L, M, y):
        # the value sits (L + M + 1) log10(y) digits below the integrand, L log10(y)
        # of them by cancellation: the reference keeps 30 digits past both
        import mpmath

        with mpmath.workdps(30 + int((L + M + 2) * math.log10(y))):
            ref = float(mpmath.quad(lambda x: mpmath.legendre(L, x) / (mpmath.mpf(y) - x) ** (M + 1), [-1, 1]))
        q = integrate_q_definition(L, M, y, 1e-10)
        assert q.converged
        assert abs(q.value - ref) <= 1e-10 * abs(ref)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integrate_q_definition(0, 0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            integrate_q_definition(0, 0, math.inf)
        with pytest.raises(ValueError):
            integrate_q_definition(25, 0, 2.0)


class TestThreeBesselRegularized:
    def test_sine_product(self):
        q = integrate_three_bessel_regularized(0, 0, 0, 1.0, 1.0, 1.0)
        assert q.value == pytest.approx(math.pi / 4, abs=1e-3)

    def test_outside_triangle(self):
        q = integrate_three_bessel_regularized(0, 0, 0, 1.0, 1.0, 3.0)
        assert abs(q.value) < 1e-3

    def test_triangle_boundary(self):
        q = integrate_three_bessel_regularized(0, 0, 0, 1.0, 1.0, 2.0)
        assert q.value == pytest.approx(math.pi / 16, abs=1e-2)

    def test_deterministic(self):
        spec = (1, 1, 2, 1.0, 1.0, 1.5)
        assert integrate_three_bessel_regularized(*spec) == integrate_three_bessel_regularized(*spec)


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

    def test_integrands_equal_point_loop(self, monkeypatch):
        integrands = []
        panels = oracle._Panels
        monkeypatch.setattr(
            oracle, "_Panels", lambda f, contexts: integrands.append(f) or panels(f, contexts)
        )
        l, L, y0 = 3, 2, 1.5
        oracle.check_eq_2_12(l, L, y0)
        f_near, f_far = integrands
        b_split = 4.5
        y = np.linspace(y0, b_split, 41)
        assert f_near(y, 0).tolist() == [specfun.paper_q_combination(l, L + 1, v) for v in y.tolist()]
        # t below 3.5e-12 puts y past 1e12, where the integrand is taken as 0
        t = np.concatenate([np.geomspace(1e-14, 1.0, 40), [4e-12]])
        loop = []
        for ti in t.tolist():
            yv = 1.0 + (b_split - 1.0) / ti
            loop.append(
                specfun.paper_q_combination(l, L + 1, yv) * (b_split - 1.0) / (ti * ti) if yv < 1e12 else 0.0
            )
        assert f_far(t, 0).tolist() == loop
        assert loop[0] == 0.0 and loop[-1] != 0.0

    def test_largest_lower_ends(self):
        # 4 y0 must stay finite: the far part splits at 2 y0 and a panel's midpoint sums its ends
        assert oracle.check_eq_2_12(1, 0, math.ldexp(1.0 - 2.0**-53, 1022)).value == 0.0
        for y0 in (math.ldexp(1.0, 1022), 1e308, sys.float_info.max):
            with pytest.raises(ValueError, match="^y0 must be below"):
                oracle.check_eq_2_12(1, 0, y0)


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
        lambda: integrate_two_bessel(2, 51, 0, 1.0, 1.0, 1.0),
        lambda: integrate_two_bessel(122, 120, 120, 1.0, 1.0, 0.5),
        lambda: integrate_single_bessel(51, 1.0, 1.0, 1),
        lambda: integrate_single_bessel(2, 1.0, math.inf, 1),
        lambda: integrate_q_definition(21, 0, 2.0),
        lambda: integrate_q_definition(0, 9, 2.0),
        lambda: oracle.check_eq_2_6(21, 0, 1.0, 1.0, 1.0),
        lambda: oracle.check_eq_2_6(0, 0, 1.0, -1.0, 1.0),
        lambda: oracle.check_eq_2_12(0, 13, 2.0),
        lambda: oracle.check_eq_2_12(1.0, 0, 2.0),
        lambda: integrate_q_definition(0, 0, math.inf),
        lambda: oracle.check_eq_2_12(1, 0, math.inf),
    ])
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("args,name", [
        ((1, -1, 0, 1.0, 1.0, 1.0), "lambda1"),
        ((1, 0, 1.5, 1.0, 1.0, 1.0), "lambda2"),
        ((1.0, 0, 0, 1.0, 1.0, 1.0), "n"),
        ((-1, 0, 0, 1.0, 1.0, 1.0), "n"),
        ((1, 0, 0, 0.0, 1.0, 1.0), "k1"),
        ((1, 0, 0, 1.0, -2.0, 1.0), "k2"),
        ((1, 0, 0, 1.0, 1.0, 0.0), "alpha"),
    ], ids=["negative_lambda1", "float_lambda2", "float_n", "negative_n",
            "zero_k1", "negative_k2", "zero_alpha"])
    def test_two_bessel_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            integrate_two_bessel(*args)
