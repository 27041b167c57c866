import functools
import math
import sys
import threading
import warnings
from decimal import ROUND_DOWN, Context, Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from besselrad import specfun
from besselrad.specfun import (
    legendre_p,
    legendre_q,
    paper_q_combination,
    spherical_bessel_j,
)

mp.mp.dps = 40


def jl_series_oracle(l, x):
    """Ascending power series summed in 40-digit arithmetic."""
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(1 if l == 0 else 0)
    lead = x**l / mp.fac2(2 * l + 1)
    term = mp.mpf(1)
    total = mp.mpf(1)
    for m in range(1, 400):
        term *= -(x * x / 2) / (m * (2 * l + 2 * m + 1))
        total += term
        if abs(term) < mp.mpf("1e-45") * abs(total):
            break
    return lead * total


def q_integral_oracle(L, M, y):
    """(M!/2) * integral of P_L(x)/(y-x)^(M+1), resolved near x = 1."""
    y = mp.mpf(y)
    u_top = mp.log((y + 1) / (y - 1))
    f = lambda u: mp.legendre(L, 1 - (y - 1) * mp.expm1(u)) * mp.e ** (-M * u)
    val = mp.quad(f, mp.linspace(0, u_top, 20 + 2 * L))
    return mp.factorial(M) / 2 * (y - 1) ** (-M) * val


class TestSphericalBessel:
    def test_j0_closed_form(self):
        assert spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-15)

    def test_zero_argument(self):
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert spherical_bessel_j(3, 0.0) == 0.0

    def test_j1_at_one(self):
        # frozen from the series oracle
        assert spherical_bessel_j(1, 1.0) == pytest.approx(0.3011686789397568, rel=1e-13)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 7, 15, 30, 50])
    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.3, 0.75, 1.0, 3.2, 9.9, 31.4])
    def test_against_series_oracle(self, l, x):
        ref = float(jl_series_oracle(l, x))
        mine = spherical_bessel_j(l, x)
        if ref == 0.0:
            assert mine == 0.0
        else:
            assert mine == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("x", [52.0, 314.1, 2718.28, 1e4])
    @pytest.mark.parametrize("l", [0, 1, 5, 25, 50])
    def test_large_argument(self, l, x):
        ref = float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(l + mp.mpf("0.5"), mp.mpf(x)))
        assert spherical_bessel_j(l, x) == pytest.approx(ref, rel=1e-12)

    def test_recurrence_consistency(self):
        # j_{l-1} + j_{l+1} = (2l+1)/x * j_l
        for x in (0.1, 1.0, 10.0, 100.0):
            table = [spherical_bessel_j(l, x) for l in range(42)]
            for l in range(1, 41):
                lhs = table[l - 1] + table[l + 1]
                rhs = (2 * l + 1) / x * table[l]
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)

    def test_magnitude_bound(self):
        xs = np.linspace(0.0, 60.0, 4001)
        for l in (0, 1, 4, 11):
            vals = specfun.spherical_bessel_j_array(l, xs)
            assert np.all(np.abs(vals) <= 1.0 + 1e-14)

    @pytest.mark.parametrize("l", range(51))
    def test_one_array_across_region_edges(self, l):
        # one call holds every edge between the series, the backward
        # recurrence and the upward recurrence, with both float neighbours
        edges = [0.0, 1e-300, 0.5, math.sqrt(4 * l + 6), float(l)]
        points = set(np.linspace(0.0, 3 * l + 60, 97).tolist())
        for e in edges:
            points.update([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])
        xs = np.array(sorted(p for p in points if p >= 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = specfun.spherical_bessel_j_array(l, xs)
        assert vals.tolist() == [spherical_bessel_j(l, x) for x in xs.tolist()]
        with mp.workdps(30):
            ref = np.array([
                float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(l + mp.mpf(1) / 2, x))
                if x > 0 else float(l == 0)
                for x in xs.tolist()
            ])
        # relative error, measured against 1e-3 of the largest |j_l| near zeros
        err = np.abs(vals - ref) / np.maximum(np.abs(ref), 1e-3 * np.abs(ref).max())
        assert err.max() <= 1e-12
        assert err[xs < l].max(initial=0.0) <= 1e-13

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_j(0, -0.5)
        with pytest.raises(ValueError):
            spherical_bessel_j(51, 1.0)


class TestLegendreP:
    def test_low_degrees(self):
        assert legendre_p(0, 0.3) == 1.0
        assert legendre_p(1, -0.7) == -0.7
        assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    @given(st.integers(0, 100), st.floats(-1.0, 1.0))
    def test_bounded_by_one(self, l, x):
        assert abs(legendre_p(l, x)) <= 1.0 + 1e-12

    def test_endpoint_values(self):
        for l in range(20):
            assert legendre_p(l, 1.0) == pytest.approx(1.0, rel=1e-13)
            assert legendre_p(l, -1.0) == pytest.approx((-1.0) ** l, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_p(2, 1.5)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
    def test_table_rows_equal_scalar(self, xs):
        # every row of one table, at one point or at an array of points, is legendre_p bit for bit
        expected = [[legendre_p(l, x) for x in xs] for l in range(101)]
        assert specfun.legendre_p_all(100, xs[0])[:, None].tolist() == [row[:1] for row in expected]
        assert specfun.legendre_p_all(100, np.array(xs)).tolist() == expected


class TestLegendreQ:
    def test_q0_log_form(self):
        assert legendre_q(0, 2.0) == pytest.approx(0.5493061443340548, rel=1e-14)

    def test_q1_from_q0(self):
        assert legendre_q(1, 2.0) == pytest.approx(0.09861228866810969, rel=1e-13)

    def test_q5_large_argument(self):
        # frozen from the defining-integral oracle
        assert legendre_q(5, 100.0) == pytest.approx(1.1545876569676705e-14, rel=1e-11)

    def test_q50_near_one(self):
        assert legendre_q(50, 1.01) == pytest.approx(3.667466187598082e-4, rel=1e-11)

    @pytest.mark.parametrize("y", [1.01, 1.5, 2.0, 10.0, 100.0])
    def test_three_term_recurrence(self, y):
        q = specfun.legendre_q_all(21, y)
        for L in range(1, 20):
            lhs = (L + 1) * q[L + 1] - (2 * L + 1) * y * q[L] + L * q[L - 1]
            assert abs(lhs) <= 1e-10 * max(abs(q[L]) * y * (2 * L + 1), 1e-300)

    @pytest.mark.parametrize("y", [1.01, 1.5, 2.0, 10.0, 100.0])
    def test_decreasing_in_degree(self, y):
        q = specfun.legendre_q_all(50, y)
        nonzero = q[q > 0]
        assert np.all(np.diff(nonzero) < 0)

    def test_top_of_the_float_range(self):
        # (2l + 1) y overflows in the backward ratio recurrence; Q_5 underflows
        assert legendre_q(0, 1e308) == pytest.approx(1e-308, rel=1e-15)
        assert legendre_q(5, 1e308) == 0.0
        dec = specfun.paper_q_combination_all_dec(5, 0, 1e308)[5]
        assert abs(mp.mpf(str(dec)) / mp.legenq(5, 0, 1e308, type=3).real - 1) < 1e-35

    def test_forward_seed_near_one(self):
        # y - 1 < 1e-6 takes the forward recurrence, cheap and accurate there
        y = 1.0 + 5e-7
        ref = float(q_integral_oracle(3, 0, y))
        assert legendre_q(3, y) == pytest.approx(ref, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_q(2, 1.0)
        with pytest.raises(ValueError):
            legendre_q(2, 0.5)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_argument(self, y):
        with pytest.raises(ValueError, match=f"got {y!r}"):
            legendre_q(3, y)


class TestPaperQCombination:
    def test_order_zero_reduces_to_q(self):
        assert paper_q_combination(0, 0, 2.0) == pytest.approx(legendre_q(0, 2.0), rel=1e-15)
        assert paper_q_combination(7, 0, 1.3) == pytest.approx(legendre_q(7, 1.3), rel=1e-15)

    def test_elementary_case(self):
        # (1!/2) * integral of (2-x)^(-2) over [-1, 1] = 1/3
        assert paper_q_combination(0, 1, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_frozen_oracle_value(self):
        # (3!/2) * integral of P_2(x)/(1.5-x)^4 = 4.096 (rational: 512/125)
        assert paper_q_combination(2, 3, 1.5) == pytest.approx(4.096, rel=1e-12)

    @pytest.mark.parametrize("y", [1.01, 1.5, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("M", [0, 1, 2, 4, 6])
    def test_against_integral_oracle(self, y, M):
        for L in (0, 1, 3, 7, 10):
            ref = q_integral_oracle(L, M, y)
            if abs(ref) < mp.mpf("1e-290"):
                continue
            assert paper_q_combination(L, M, y) == pytest.approx(float(ref), rel=1e-10)

    @pytest.mark.parametrize("y", [1.01, 1.5, 2.0, 10.0, 100.0])
    def test_positive(self, y):
        for M in range(7):
            vals = specfun.paper_q_combination_all(10, M, y)
            assert np.all(vals[vals != 0.0] > 0.0)

    def test_40_digits_agree_with_float(self):
        for (L, M, y) in [(6, 4, 1.2), (10, 9, 2.0), (4, 1, 1.5)]:
            dec = specfun.paper_q_combination_all_dec(L, M, y)
            flt = specfun.paper_q_combination_all(L, M, y)
            assert float(dec[L]) == pytest.approx(flt[L], rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            paper_q_combination(2, 1, 1.0)
        with pytest.raises(ValueError):
            paper_q_combination(2, -1, 2.0)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_argument(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"got {y!r}"):
                paper_q_combination(3, 2, y)

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_40_digits_non_finite_argument(self, y):
        with pytest.raises(ValueError, match=f"got {y!r}"):
            specfun.paper_q_combination_all_dec(3, 2, y)

    def test_40_digits_orders_checked(self):
        specfun.paper_q_combination_all_dec(60, 40, 2.0)  # both maxima are accepted
        with pytest.raises(ValueError, match="M=41 exceeds the supported maximum 40"):
            specfun.paper_q_combination_all_dec(3, 41, 2.0)
        with pytest.raises(ValueError, match="lmax=61 exceeds the supported maximum 60"):
            specfun.paper_q_combination_all_dec(61, 2, 2.0)
        for M in (-1, 2.0):
            with pytest.raises(ValueError, match="M must be an integer"):
                specfun.paper_q_combination_all_dec(3, M, 2.0)


class TestFloatRange:
    """The one-point Q views raise ValueError, with no float warning, where the value leaves the float range."""

    LS, MS = (0, 1, 5, 20, 60), (0, 1, 5, 20, 40)
    YS = (1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-8, 1.0 + 1e-4, 2.0, 1e10, 1e150, 1e300)

    @pytest.mark.filterwarnings("error")
    def test_refused_where_the_value_exceeds_the_largest_float(self):
        refused = []
        for L in self.LS:
            for M in self.MS:
                for y in self.YS:
                    try:
                        value = paper_q_combination(L, M, y)
                    except ValueError as exc:
                        assert str(exc) == f"(-1)^M d^M Q_L/dy^M leaves the float range (L={L}, M={M}, y={y!r})"
                        refused.append((L, M, y))
                        continue
                    assert value == float(specfun.paper_q_combination_all(L, M, y)[L])
                    if M == 0:
                        assert legendre_q(L, y) == value
        # the 20 grid inputs that gave NaN or inf with overflow warnings
        assert len(refused) == 20
        assert all(y < 1.0 + 1e-7 and M >= 20 for _, M, y in refused)
        for L, M, y in refused:
            assert abs(q_combination_closed_form(L, M, y)[L]) > sys.float_info.max


def q_combination_loop(lmax, M, y):
    """Reference: the Q seed rule and recurrences one l at a time, in floats."""
    q = [0.5 * math.log1p(2.0 / (y - 1.0))]
    if specfun._forward_digits(lmax, y) <= specfun._FLOAT_FORWARD_DIGITS:
        if lmax >= 1:
            q.append(y * q[0] - 1.0)
        for l in range(1, lmax):
            q.append(((2 * l + 1) * y * q[l] - l * q[l - 1]) / (l + 1))
    else:
        # the backward ratio recurrence from 0 at order lmax + 1 + depth
        depth = math.ceil(16 * math.log(10) / (2 * math.acosh(y))) + 2
        ratios = [0.0] * (lmax + 1)
        r = 0.0
        for l in range(lmax + depth, 0, -1):
            r = l / ((2 * l + 1) * y - (l + 1) * r)
            if l <= lmax:
                ratios[l] = r
        for l in range(1, lmax + 1):
            q.append(q[l - 1] * ratios[l])
    if M == 0:
        return q
    ym1 = (y - 1.0) * (y + 1.0)
    d_prev = q
    d_curr = [-1.0 / ym1] + [l * (y * d_prev[l] - d_prev[l - 1]) / ym1 for l in range(1, lmax + 1)]
    for m in range(1, M):
        d_next = [(-2 * m * y * d_curr[0] - m * (m - 1) * d_prev[0]) / ym1] + [
            (l * (y * d_curr[l] + m * d_prev[l] - d_curr[l - 1])
             - 2 * m * y * d_curr[l] - m * (m - 1) * d_prev[l]) / ym1
            for l in range(1, lmax + 1)
        ]
        d_prev, d_curr = d_curr, d_next
    return [-v for v in d_curr] if M % 2 else d_curr


class TestPointArrays:
    """The Q recurrences over an array of points equal the float form bit for bit."""

    @given(
        st.integers(0, 30), st.integers(0, 20),
        st.lists(st.floats(-12.0, 2.0), min_size=1, max_size=20),
    )
    def test_array_equals_float_and_loop(self, lmax, M, log_gaps):
        ys = 1.0 + 10.0 ** np.array(log_gaps)
        with np.errstate(over="ignore", under="ignore"):
            arr = specfun.paper_q_combination_all(lmax, M, ys)
            for j, y in enumerate(ys.tolist()):
                scalar = specfun.paper_q_combination_all(lmax, M, y)
                # the memo seeds at the top of lmax's bucket and reads the first lmax + 1 rows
                reference = np.array(q_combination_loop(specfun._chain_top(lmax), M, y)[:lmax + 1])
                assert scalar.tobytes() == reference.tobytes()
                assert arr[:, j].tobytes() == scalar.tobytes()

    def test_legendre_q_all_shape(self):
        ys = np.array([1.5, 2.0, 10.0])
        q = specfun.legendre_q_all(4, ys)
        assert q.shape == (5, 3)
        assert [q[4, j] for j in range(3)] == [legendre_q(4, y) for y in ys.tolist()]


@functools.lru_cache(maxsize=None)
def legendre_polynomials(l):
    """P_l and V_l as exact coefficient lists (lowest power first), with Q_l = P_l Q_0 - V_l.

    Both satisfy (l + 1) f_{l+1} = (2l + 1) x f_l - l f_{l-1}; P_0 = 1, P_1 = x,
    V_0 = 0, V_1 = 1.
    """
    if l == 0:
        return (Fraction(1),), (Fraction(0),)
    if l == 1:
        return (Fraction(0), Fraction(1)), (Fraction(1),)
    out = []
    for f_l, f_lm1 in zip(legendre_polynomials(l - 1), legendre_polynomials(l - 2)):
        c = [Fraction(0)] * (len(f_l) + 1)
        for i, a in enumerate(f_l):
            c[i + 1] += (2 * l - 1) * a
        for i, a in enumerate(f_lm1):
            c[i] -= (l - 1) * a
        out.append(tuple(v / l for v in c))
    return tuple(out)


def _poly_derivative_at(coeffs, order, y):
    total = mp.mpf(0)
    for i in range(len(coeffs) - 1, order - 1, -1):
        c = coeffs[i] * (math.factorial(i) // math.factorial(i - order))
        total = total * y + mp.mpf(c.numerator) / c.denominator
    return total


def q_combination_closed_form(lmax, M, y):
    """R(l, M, y) for l = 0..lmax from Q_l = P_l Q_0 - V_l, differentiated exactly.

    Q_0 = ln((y + 1)/(y - 1))/2 has the derivatives
    (-1)^(k-1) (k-1)!/2 ((y + 1)^-k - (y - 1)^-k).  P_l Q_0 cancels against V_l
    by about (2 lmax + M + 2) log10(2y + 2) digits; the working precision
    covers that with 50 to spare.
    """
    dps = 50 + int((2 * lmax + M + 2) * math.log10(2 * y + 2))
    with mp.workdps(dps):
        Y = mp.mpf(y)
        dq0 = [mp.log((Y + 1) / (Y - 1)) / 2] + [
            (-1) ** (k - 1) * mp.factorial(k - 1) / 2 * ((Y + 1) ** -k - (Y - 1) ** -k)
            for k in range(1, M + 1)
        ]
        out = []
        for l in range(lmax + 1):
            p, v = legendre_polynomials(l)
            d = mp.fsum(mp.binomial(M, k) * _poly_derivative_at(p, M - k, Y) * dq0[k]
                        for k in range(M + 1))
            out.append((-1) ** M * (d - _poly_derivative_at(v, M, Y)))
    return out


SEED_GRID_Y = [1.0 + g for g in (1e-12, 1e-9, 1.01e-6, 1e-5, 1e-3, 0.1, 1.5, 10.0, 1e3, 1e6)] + [1e20]
SEED_GRID_ORDERS = [(0, 0), (1, 3), (8, 12), (20, 20), (30, 5), (40, 0), (40, 12), (40, 20)]
# At lmax = 40 and M >= 12 near y = 1 the derivative recurrence itself, run
# at 40 digits, amplifies the last digits of whichever seed feeds it to
# 1e-32 .. 1e-28.  At these points the forward seed, which the rule picks,
# misses 1e-30: 1.0e-29, 1.2e-30 and 3.3e-30 at the first three (the
# backward seed, forced there, gives 2.2e-30, 2.2e-30 and 9.9e-32); the
# four below y - 1 = 1e-6, which only the forward seed reaches, give
# 3.5e-30 .. 8.5e-29.
DERIVATIVE_RECURRENCE_SHORT = {(1.0 + 1.01e-6, 40, 12), (1.0 + 1e-5, 40, 12), (1.0 + 1e-5, 40, 20)} | {
    (1.0 + g, 40, M) for g in (1e-12, 1e-9) for M in (12, 20)}


class TestDecimalSeed:
    """The 40-digit R(l, M, y) against the closed form of Q_l at working precision."""

    @pytest.mark.parametrize("y", SEED_GRID_Y)
    @pytest.mark.parametrize("lmax,M", SEED_GRID_ORDERS)
    def test_against_closed_form(self, request, y, lmax, M):
        if (y, lmax, M) in DERIVATIVE_RECURRENCE_SHORT:
            request.applymarker(pytest.mark.xfail(
                strict=True, reason="the 40-digit derivative recurrence loses ~10 digits here"))
        dec = specfun.paper_q_combination_all_dec(lmax, M, y)
        ref = q_combination_closed_form(lmax, M, y)
        with mp.workdps(50):
            worst = max(abs(mp.mpf(str(a)) / b - 1) for a, b in zip(dec, ref))
        assert worst <= mp.mpf("1e-30")

    @pytest.mark.parametrize("y", SEED_GRID_Y)
    def test_q_seed_to_working_precision(self, y):
        dec = specfun.paper_q_combination_all_dec(40, 0, y)
        ref = q_combination_closed_form(40, 0, y)
        with mp.workdps(50):
            assert max(abs(mp.mpf(str(a)) / b - 1) for a, b in zip(dec, ref)) <= mp.mpf("1e-38")

    @pytest.mark.usefixtures("cold_q_memo")  # a warm chain runs no seed
    @pytest.mark.parametrize("y", SEED_GRID_Y + [1e300])
    @pytest.mark.parametrize("lmax", [0, 1, 8, 20, 30, 40])
    def test_continued_fraction_only_past_the_guard_rule(self, monkeypatch, y, lmax):
        # the chain of lmax runs to its bucket's top; the ratio Q_{top+1}/Q_top, to 36
        # digits, seeds Q only past the guard rule at that top
        calls = []
        ratio = specfun._q_ratio
        monkeypatch.setattr(specfun, "_q_ratio", lambda *a: calls.append(a) or ratio(*a))
        specfun.paper_q_combination_all_dec(lmax, 2, y)
        chain_top = specfun._chain_top(lmax)
        assert chain_top == min(t for t in (0, 1, 3, 7, 15, 31, 63) if t >= lmax)
        guard = specfun._forward_guard_digits(chain_top, y)
        assert guard > 0
        assert bool(calls) == (guard > 40 and chain_top > 0)
        assert all(top == chain_top + 1 and digits == 36 for top, _, digits in calls)


def float_r_bound(lmax, M):
    """Stated bound on the relative error of the float R(l, M, y), l <= lmax.

    The seed costs at most 1e-12 (M = 0).  Near y = 1 the derivative
    recurrence amplifies rounding as lmax and M grow, whichever seed feeds
    it: at lmax = 40, M = 12 it keeps about 5 digits in floats (1.1e-5) and
    29 in 40-digit Decimals (DERIVATIVE_RECURRENCE_SHORT).
    """
    return 1e-12 * 10 ** (lmax * M / 48)


def assert_float_r_near(lmax, M, y, ref):
    with np.errstate(under="ignore"):
        got = specfun.paper_q_combination_all(lmax, M, y)
    for l in range(lmax + 1):
        if abs(ref[l]) < mp.mpf("1e-290"):  # the float value underflows
            continue
        rel = abs(mp.mpf(float(got[l])) / ref[l] - 1)
        assert rel <= float_r_bound(lmax, M), (l, M, y, rel)


FLOAT_GRID_Y = [1.0 + g for g in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 10.0, 1e3, 1e6)]
FLOAT_GRID_LMAX = (0, 1, 2, 5, 12, 20, 40)
FLOAT_GRID_M = (0, 1, 3, 6, 12)


class TestFloatSeed:
    """The float Q_l and R(l, M, y) against the closed form of Q_l, and the seed rule."""

    @pytest.mark.parametrize("M", FLOAT_GRID_M)
    @pytest.mark.parametrize("y", FLOAT_GRID_Y)
    def test_against_closed_form(self, y, M):
        ref = q_combination_closed_form(max(FLOAT_GRID_LMAX), M, y)
        for lmax in FLOAT_GRID_LMAX:
            assert_float_r_near(lmax, M, y, ref)

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("lmax", FLOAT_GRID_LMAX)
    def test_both_sides_of_the_budget(self, lmax, side):
        # the y at which the forward recurrence loses exactly the float budget
        t = math.cosh(specfun._FLOAT_FORWARD_DIGITS * math.log(10) / (2 * lmax + 1)) - 1.0
        y = 1.0 + t * (1.0 + side * 1e-6)
        assert (specfun._forward_digits(lmax, y) <= specfun._FLOAT_FORWARD_DIGITS) == (side < 0)
        for M in FLOAT_GRID_M:
            assert_float_r_near(lmax, M, y, q_combination_closed_form(lmax, M, y))

    @pytest.mark.parametrize("lmax", [1, 5, 20, 40, 60])
    def test_backward_side_against_legenq(self, lmax):
        # Q_{lmax+1}/Q_lmax to 2e-15.  Near y = 1 the downward fill carries
        # the rounding of each ratio into every lower Q_l undamped, so Q_l is
        # held to (l + 1) 1e-15 (at most 2.1e-14 at l = 58, lmax = 60).
        t = math.cosh(specfun._FLOAT_FORWARD_DIGITS * math.log(10) / (2 * lmax + 1)) - 1.0
        for y in (1.0 + np.geomspace(t * (1.0 + 1e-6), 1e20, 12)).tolist():
            assert specfun._forward_digits(lmax, y) > specfun._FLOAT_FORWARD_DIGITS
            ref = [mp.legenq(l, 0, y, type=3).real for l in range(lmax + 2)]
            ratio = specfun._q_ratio(lmax + 1, y, 16)
            assert abs(ratio / (ref[lmax + 1] / ref[lmax]) - 1) <= 2e-15
            with np.errstate(under="ignore"):
                q = specfun.legendre_q_all(lmax, y)
            for l in range(lmax + 1):
                if abs(ref[l]) >= mp.mpf("1e-290"):  # else the float value underflows
                    assert abs(q[l] / ref[l] - 1) <= (l + 1) * 1e-15, (y, l)

    @pytest.mark.usefixtures("cold_q_memo")  # a warm chain runs no seed
    @pytest.mark.parametrize("lmax", [0, 1, 8, 20, 30, 40])
    def test_continued_fraction_only_past_the_budget(self, monkeypatch, lmax):
        # the chain of lmax runs to its bucket's top; the ratio Q_{top+1}/Q_top, to 16
        # digits, seeds Q only past the budget at that top
        calls = []
        ratio = specfun._q_ratio
        monkeypatch.setattr(specfun, "_q_ratio", lambda *a: calls.append(a) or ratio(*a))
        ys = SEED_GRID_Y + [1e300]
        chain_top = specfun._chain_top(lmax)
        past = [specfun._forward_digits(chain_top, y) > specfun._FLOAT_FORWARD_DIGITS and chain_top > 0
                for y in ys]
        with np.errstate(all="ignore"):
            for y, expected in zip(ys, past):
                calls.clear()
                specfun.paper_q_combination_all(lmax, 2, y)
                assert bool(calls) == expected
            calls.clear()
            specfun.paper_q_combination_all(lmax, 2, np.array(ys))
        assert len(calls) == sum(past)
        assert all(top == chain_top + 1 and digits == 16 for top, _, digits in calls)


def memo_values(lmax, M, y, prec):
    """R(l, M, y), l = 0..lmax, one item per l: bytes (floats, prec 0: y a float or an array) or digit strings."""
    if prec:
        return [str(v) for v in specfun.paper_q_combination_all_dec(lmax, M, y, prec)]
    return [row.tobytes() for row in specfun.paper_q_combination_all(lmax, M, y)]


# the buckets 0, 1, 3, 3, 7, 7, 15, 15, 31, 31, 63 and 63
MEMO_ORDERS = [(0, 0), (1, 2), (2, 3), (3, 2), (5, 3), (7, 3), (8, 3), (15, 12), (20, 21), (31, 21), (40, 12), (40, 21)]


@pytest.mark.usefixtures("cold_q_memo")
class TestChainMemo:
    """A value read from the memo of derivative chains does not depend on what was asked before."""

    @pytest.mark.parametrize("prec", [0, 40])
    @pytest.mark.parametrize("y", SEED_GRID_Y)
    def test_cold_warm_and_extended_agree(self, y, prec):
        # in floats the point y and a batch that holds it, read in both orders
        reads = [y] if prec else [y, np.array([1.5, y]), np.array([1.5, y]), y]
        with np.errstate(all="ignore"):
            cold = {}
            for lmax, M in MEMO_ORDERS:
                for i, points in enumerate(reads):
                    specfun._CHAINS.clear()
                    cold[lmax, M, i] = memo_values(lmax, M, points, prec)
                if not prec:
                    column = specfun.paper_q_combination_all(lmax, M, reads[1])[:, 1]
                    assert [v.tobytes() for v in column] == cold[lmax, M, 0]
            specfun._CHAINS.clear()
            # (40, 21) extends the chain of (40, 12); the reverse pass reads every
            # order warm, the lower M of lmax = 40 after the higher one.  The
            # orders of one bucket share its chain, the lower lmax read first in
            # one pass and last in the other
            for lmax, M in MEMO_ORDERS + MEMO_ORDERS[::-1]:
                for i, points in enumerate(reads):
                    assert memo_values(lmax, M, points, prec) == cold[lmax, M, i], (lmax, M, i)
            # a lower lmax reads the first rows of its bucket's chain (lmax <= 60 is public),
            # at a float y and inside an array
            tops = {lmax: specfun._chain_top(lmax) for lmax, _ in MEMO_ORDERS}
            assert sorted(set(tops.values())) == [0, 1, 3, 7, 15, 31, 63]
            for lmax, M in MEMO_ORDERS:
                for i, points in enumerate(reads):
                    assert cold[lmax, M, i] == memo_values(min(tops[lmax], 60), M, points, prec)[:lmax + 1]
            assert len({key[0] for key in specfun._CHAINS if key[2] == prec}) == 7

    def test_caller_context_changes_no_value(self):
        cold = memo_values(10, 5, 1.3, 40)
        specfun._CHAINS.clear()
        with localcontext(Context(prec=12, rounding=ROUND_DOWN)):
            first = [str(v) for v in specfun.paper_q_combination_all_dec(10, 5, 1.3)]
        assert first == cold
        assert memo_values(10, 5, 1.3, 40) == cold

    @pytest.mark.parametrize("M", [0, 2, 3])
    def test_changing_a_result_changes_no_later_one(self, M):
        y = 1.7
        for points in (y, np.array([y, 2.5])):
            for read in (lambda: specfun.paper_q_combination_all(8, M, points),
                         lambda: specfun.legendre_q_all(8, points)):
                values = read()
                expected = values.tobytes()
                values[:] = -1.0
                assert read().tobytes() == expected
        values = specfun.paper_q_combination_all_dec(8, M, y)
        expected = [str(v) for v in values]
        values[:] = [Decimal(-1)] * len(values)
        assert [str(v) for v in specfun.paper_q_combination_all_dec(8, M, y)] == expected

    def test_holds_last_point_only(self):
        for y in np.linspace(1.5, 3.0, 100).tolist():
            specfun.paper_q_combination_all(2, 1, y)
            specfun.paper_q_combination_all(5, 3, y)
            specfun.paper_q_combination_all_dec(2, 1, y)
            point = ((), np.float64(y).tobytes())
            # a chain is keyed by its bucket's top and its precision
            assert sorted(specfun._CHAINS) == [(3, point, 0), (3, point, 40), (7, point, 0)]

    def test_batch_then_rescue_of_one_of_its_points(self):
        ys = np.linspace(1.5, 3.0, 5)
        batch = ((5,), ys.tobytes())
        point = [((), v.tobytes()) for v in ys]
        specfun.paper_q_combination_all(2, 1, ys)
        specfun.legendre_q_all(5, ys)
        assert sorted(specfun._CHAINS) == [(3, batch, 0), (7, batch, 0)]
        # 40-digit reads at the batch's points drop nothing
        specfun.paper_q_combination_all_dec(2, 1, float(ys[3]))
        specfun.paper_q_combination_all_dec(2, 1, float(ys[1]))
        assert sorted(specfun._CHAINS) == sorted([(3, batch, 0), (7, batch, 0), (3, point[3], 40), (3, point[1], 40)])
        # a float read at one of them drops the chains at the others
        one = specfun.paper_q_combination_all(2, 1, float(ys[3]))
        assert sorted(specfun._CHAINS) == [(3, point[3], 0), (3, point[3], 40)]
        # a 40-digit read at another point drops every chain but its own
        specfun.paper_q_combination_all_dec(2, 1, 2.9)
        assert list(specfun._CHAINS) == [(3, ((), np.float64(2.9).tobytes()), 40)]
        # the batch's chains, built again, give the same bytes
        assert specfun.paper_q_combination_all(2, 1, ys)[:, 3].tobytes() == one.tobytes()

    def test_changing_the_points_after_a_read_changes_no_later_one(self):
        ys = np.array([1.5, 2.0, 3.0])
        expected = specfun.paper_q_combination_all(4, 3, ys.copy()).tobytes()
        specfun._CHAINS.clear()
        specfun.legendre_q_all(4, ys)  # seeds the chain of these points
        ys[:] = 9.0
        # extending that chain must not see the caller's change
        assert specfun.paper_q_combination_all(4, 3, np.array([1.5, 2.0, 3.0])).tobytes() == expected

    def test_concurrent_extension_of_one_chain(self):
        y, lmax, top = 1.05, 20, 21
        cold = {}
        for M in range(top + 1):
            specfun._CHAINS.clear()
            cold[M] = (memo_values(lmax, M, y, 0), memo_values(lmax, M, y, 40))
        ascending = list(range(top + 1))
        orders = [ascending, ascending[::-1], ascending[1::2] + ascending[::2],
                  [int(M) for M in np.random.default_rng(7).permutation(top + 1)]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # each round races four threads on one cold key
                specfun._CHAINS.clear()
                results = [None] * len(orders)
                start = threading.Barrier(len(orders))

                def extend(i):
                    start.wait(timeout=60)
                    results[i] = {M: (memo_values(lmax, M, y, 0), memo_values(lmax, M, y, 40))
                                  for M in orders[i]}

                threads = [threading.Thread(target=extend, args=(i,)) for i in range(len(orders))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert all(r == cold for r in results)
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_reads_at_other_points(self):
        # four threads each read a batch's float tables, then the 40-digit tables at its
        # points: every read drops or keeps chains, and no value may change
        batches = [np.array([1.05, 1.5]), np.array([1.5, 2.5]), np.array([1.05, 1.5]), np.array([3.0])]
        reads = [(points, M) for points in batches for M in (2, 7)]
        cold = {}
        for i, (points, M) in enumerate(reads):
            specfun._CHAINS.clear()
            cold[i] = (memo_values(12, M, points, 0), [memo_values(12, M, y, 40) for y in points.tolist()])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [[] for _ in batches]
            start = threading.Barrier(len(batches))

            def read(t):
                start.wait(timeout=60)
                for i in [(j + t) % len(reads) for j in range(len(reads))] * 5:  # each its own order
                    points, M = reads[i]
                    results[t].append((i, (memo_values(12, M, points, 0),
                                           [memo_values(12, M, y, 40) for y in points.tolist()])))

            threads = [threading.Thread(target=read, args=(t,)) for t in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert all(len(r) == 5 * len(reads) for r in results)
            assert all(values == cold[i] for r in results for i, values in r)
            # every chain left lies at the points of the last float chain seeded
            assert all(set(np.frombuffer(points).tolist()) <= specfun._HELD for _, (_, points), _ in specfun._CHAINS)
        finally:
            sys.setswitchinterval(interval)
