import itertools
import math
import random
import re
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from besselrad import closedform, specfun
from besselrad.closedform import (
    FormulaInapplicable,
    Method,
    bare_integral,
    beta_step,
    delta_param,
    laplace_single_bessel,
    summation_bounds,
    three_bessel_product,
    two_bessel_equal_order,
    two_bessel_product,
    y_param,
)
from besselrad.wigner import AngularMomenta3j, wigner_3j

QUARTER_LOG5 = 0.25 * math.log(5.0)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestParameters:
    def test_y_param_values(self):
        assert y_param(1.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)
        assert y_param(1.0, 2.0, 0.5) == pytest.approx(1.3125, rel=1e-15)
        assert closedform.condition_number(1.0, 2.0, 0.5) == pytest.approx(1.0 / 0.3125, rel=1e-14)

    def test_y_param_limit_direction(self):
        assert y_param(1.0, 1.0, 1e-7) > 1.0
        assert closedform.condition_number(1.0, 1.0, 1e-7) == pytest.approx(2e14, rel=1e-14)

    @given(positive, positive, positive)
    def test_y_always_above_one(self, k1, k2, alpha):
        assert y_param(k1, k2, alpha) > 1.0

    def test_result_carries_condition_number(self):
        # (n, lambda1, lambda2, k1, k2, alpha) = (3, 1, 2, 1, 2, 0.5), at y = 1.3125
        assert bare_integral(3, 1, 2, 1.0, 2.0, 0.5).condition == closedform.condition_number(1.0, 2.0, 0.5)

    def test_delta_param(self):
        assert delta_param(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert delta_param(1.0, 1.0, 2.0) == pytest.approx(-1.0, rel=1e-15)
        assert delta_param(3.0, 4.0, 5.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            y_param(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            delta_param(1.0, -1.0, 1.0)


class TestDataTypes:
    @given(positive, positive, positive)
    @example(74.0, 74.0, 0.001)  # y - 1 ~ 9e-11: 1/(y - 1) of the float y keeps only 6 digits
    def test_integral_spec_y_above_one(self, k1, k2, alpha):
        y = y_param(k1, k2, alpha)
        assert y > 1.0
        k1x, k2x, ax = Fraction(k1), Fraction(k2), Fraction(alpha)
        inverse = 2 * k1x * k2x / ((k1x - k2x) ** 2 + ax**2)  # 1/(y - 1) in exact arithmetic
        assert closedform.condition_number(k1, k2, alpha) == pytest.approx(float(inverse), rel=1e-6)

    def test_three_bessel_spec_delta(self):
        assert delta_param(3.0, 4.0, 5.0) == 0.0


class TestBetaStep:
    def test_values(self):
        assert beta_step(0.3) == 1.0
        assert beta_step(1.7) == 0.0
        assert beta_step(1.0) == 0.5
        assert beta_step(-1.0) == 0.5

    @given(st.floats(-5, 5, allow_nan=False))
    def test_range(self, d):
        assert beta_step(d) in (0.0, 0.5, 1.0)


class TestLaplaceSingleBessel:
    def test_offset1_lowest_order(self):
        assert laplace_single_bessel(0, 1.0, 1.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_offset2_lowest_order(self):
        assert laplace_single_bessel(0, 1.0, 1.0, 2) == pytest.approx(0.5, rel=1e-15)

    def test_frozen_quadrature_value(self):
        # integral r^3 e^(-r/2) j_2(2r) dr = 32/4.25^3
        assert laplace_single_bessel(2, 0.5, 2.0, 1) == pytest.approx(
            0.41685324648890698, rel=1e-14
        )

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            laplace_single_bessel(1, 1.0, 1.0, 3)

    @pytest.mark.parametrize("args,reference", [
        # mpmath at 40 digits; (2 k3)^l3 l3! and (k3^2 + alpha^2)^(l3 + 1) overflow on their own
        ((50, 1e5, 1e5, 1), 1.520704660085668902e-196),
        ((30, 1e6, 1e6, 2), 4.111419327088961409e-165),
        ((50, 1e7, 1e7, 1), 1.520704660085668902e-300),
    ])
    def test_intermediates_in_float_range(self, args, reference):
        assert laplace_single_bessel(*args) == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("args", [
        (50, 1.0, 1e200, 1),      # 3.4e-10321: underflows
        (50, 1e-200, 1e-200, 2),  # 7.8e10665: overflows
        (50, 1e-5, 1e-5, 1),      # 1.52e324: overflows
    ])
    def test_float_range(self, args):
        lambda3, alpha, k3, offset = args
        message = re.escape(f"(lambda3={lambda3}, alpha={alpha!r}, k3={k3!r}, offset={offset})")
        with pytest.raises(ValueError, match="float range " + message):
            laplace_single_bessel(*args)


class TestSummationBounds:
    def test_examples(self):
        assert summation_bounds(0, 0, 0, 0) == (0, 0)
        assert summation_bounds(1, 1, 2, 1) == (0, 2)
        assert summation_bounds(2, 1, 1, 0) == (1, 1)

    def test_empty_range_allowed(self):
        lo, hi = summation_bounds(0, 4, 0, 0)
        assert lo > hi

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
    def test_bounds_cover_selection_rules(self, l1, l2, l3):
        for scr in range(l3 + 1):
            lo, hi = summation_bounds(l1, l2, l3, scr)
            # outside [lo, hi] at least one 3j factor dies by triangle rule
            for l in (lo - 1, hi + 1):
                if l < 0:
                    continue
                t1 = abs(l1 - (l3 - scr)) <= l <= l1 + l3 - scr
                t2 = abs(l2 - scr) <= l <= l2 + scr
                if lo <= l <= hi:
                    continue
                assert not (t1 and t2)


class TestThreeBessel:
    def test_sine_product(self):
        assert three_bessel_product(0, 0, 0, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_outside_triangle(self):
        assert three_bessel_product(0, 0, 0, 1.0, 1.0, 3.0) == 0.0

    def test_boundary_half(self):
        assert three_bessel_product(0, 0, 0, 1.0, 1.0, 2.0) == pytest.approx(math.pi / 16, rel=1e-14)

    def test_frozen_value(self):
        assert three_bessel_product(1, 1, 0, 1.0, 1.0, 1.0) == pytest.approx(-0.22672492052927723, rel=1e-13)

    def test_parity_zero(self):
        assert three_bessel_product(1, 1, 1, 1.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("ks,match", [
        ((1e-200, 1e-200, 1e-200), "delta .* not finite"),  # 2 k1 k2 underflows to 0
        ((1e200, 1e200, 1e200), "delta .* not finite"),     # the squares overflow
        ((1e-120, 1e-120, 1e-120), "float range"),          # 4 k1 k2 k3 underflows to 0
        ((1e-100, 1e100, 1e100), "float range"),            # (k2/k1) ** scr overflows
    ])
    def test_float_range(self, ks, match):
        message = re.escape(f"(k1={ks[0]!r}, k2={ks[1]!r}, k3={ks[2]!r})")
        with pytest.raises(ValueError, match=match + ".*" + message):
            three_bessel_product(10, 10, 20, *ks)


class TestTwoBesselProduct:
    def test_equal_wavenumber_log_case(self):
        res = two_bessel_product(0, 0, 0, 1.0, 1.0, 1.0, 1)
        assert res.value == pytest.approx(QUARTER_LOG5, rel=1e-14)
        assert res.method is Method.EQ_2_8
        assert res.condition == pytest.approx(2.0, rel=1e-14)

    def test_parity_zero_skips_q(self):
        res = two_bessel_product(1, 1, 1, 1.0, 1.0, 1.0, 1)
        assert res.value == 0.0

    def test_frozen_offset1(self):
        res = two_bessel_product(0, 1, 1, 1.0, 2.0, 1.0, 1)
        assert res.value == pytest.approx(-0.08694310170871985, rel=1e-12)

    def test_frozen_offset2(self):
        res = two_bessel_product(0, 0, 0, 1.0, 1.0, 1.0, 2)
        assert res.value == pytest.approx(0.4, rel=1e-13)
        assert res.method is Method.EQ_2_11
        res = two_bessel_product(2, 2, 2, 1.0, 1.0, 1.0, 2)
        assert res.value == pytest.approx(-0.22632005043800515, rel=1e-12)

    @given(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
        st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.1, 4.0),
        st.sampled_from([1, 2]),
    )
    def test_parity_rule(self, l1, l2, l3, k1, k2, alpha, offset):
        res = two_bessel_product(l1, l2, l3, k1, k2, alpha, offset)
        if (l1 + l2 + l3) % 2 == 1:
            assert res.value == 0.0

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            two_bessel_product(0, 0, 0, 1.0, 1.0, 1.0, 3)

    def test_lambda_cap(self):
        with pytest.raises(ValueError):
            two_bessel_product(21, 0, 0, 1.0, 1.0, 1.0, 1)


class TestEqualOrder:
    def test_log_cases(self):
        assert two_bessel_equal_order(0, 1.0, 1.0, 1.0).value == pytest.approx(
            QUARTER_LOG5, rel=1e-14
        )
        assert two_bessel_equal_order(0, 1.0, 2.0, 1.0).value == pytest.approx(
            math.log(5.0) / 8.0, rel=1e-14
        )

    def test_frozen_higher_order(self):
        # Q_2(1.125)/2, frozen from the defining-integral oracle
        res = two_bessel_equal_order(2, 1.0, 1.0, 0.5)
        assert res.value == pytest.approx(0.14676794645715367, rel=1e-12)
        assert res.method is Method.EQ_2_9

    @pytest.mark.parametrize("L", range(6))
    @pytest.mark.parametrize("k1,k2,alpha", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 1.0, 0.5)])
    def test_consistent_with_general_route(self, L, k1, k2, alpha):
        # the l3 = 0 double sum must collapse onto the direct Q_L form
        w3 = closedform._w3j000(L, L, 0)
        special = two_bessel_equal_order(L, k1, k2, alpha).value * w3
        general = two_bessel_product(L, L, 0, k1, k2, alpha, 1).value
        assert special == pytest.approx(general, rel=1e-12)


class TestBareIntegral:
    def test_equal_order_route(self):
        res = bare_integral(1, 0, 0, 1.0, 1.0, 1.0)
        assert res.value == pytest.approx(QUARTER_LOG5, rel=1e-14)
        assert res.method is Method.EQ_2_9

    def test_offset2_route(self):
        res = bare_integral(2, 0, 0, 1.0, 1.0, 1.0)
        assert res.value == pytest.approx(0.4, rel=1e-13)
        assert res.method is Method.EQ_2_11

    def test_offset1_route(self):
        res = bare_integral(2, 0, 1, 1.0, 2.0, 1.0)
        assert res.method is Method.EQ_2_8
        # product / 3j(0,1,1;000), frozen
        assert res.value == pytest.approx(0.15058986952713126, rel=1e-12)

    def test_inapplicable(self):
        with pytest.raises(FormulaInapplicable):
            bare_integral(1, 2, 0, 1.0, 1.0, 1.0)

    @given(
        st.integers(0, 5), st.integers(0, 5), st.integers(1, 8),
        st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.2, 3.0),
    )
    def test_swap_symmetry(self, l1, l2, n, k1, k2, alpha):
        try:
            a = bare_integral(n, l1, l2, k1, k2, alpha)
        except FormulaInapplicable:
            with pytest.raises(FormulaInapplicable):
                bare_integral(n, l2, l1, k2, k1, alpha)
            return
        b = bare_integral(n, l2, l1, k2, k1, alpha)
        assert a.value == pytest.approx(b.value, rel=1e-11, abs=1e-300)

    def test_singular_direction(self):
        values = []
        for alpha in (0.1, 0.03, 0.01):
            res = bare_integral(2, 0, 1, 1.0, 1.0, alpha)
            assert res.condition == pytest.approx(2.0 / alpha**2, rel=1e-12)
            values.append(res.value)
        assert values[0] < values[1] < values[2]


class TestOrderValidation:
    def test_numpy_integer_orders(self):
        expected = bare_integral(2, 0, 1, 1.0, 2.0, 0.5)
        assert bare_integral(2, np.int64(0), np.int64(1), 1.0, 2.0, 0.5) == expected
        assert bare_integral(np.int64(2), 0, 1, 1.0, 2.0, 0.5) == expected
        route = closedform.coupling_route(np.int64(3), np.int64(1), np.int32(2))
        assert route == (1, 2)
        assert type(route[0]) is int
        three = three_bessel_product(np.int64(1), np.int64(1), np.int64(2), 1.0, 1.0, 1.5)
        assert three == three_bessel_product(1, 1, 2, 1.0, 1.0, 1.5)

    @pytest.mark.parametrize("bad", [-1, 1.0, "1", None, 21])
    def test_rejected_orders(self, bad):
        with pytest.raises(ValueError):
            bare_integral(2, bad, 1, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            two_bessel_product(bad, 1, 1, 1.0, 2.0, 0.5, 1)

    def test_rejected_power(self):
        for n in (0, -1, 2.0):
            with pytest.raises(ValueError):
                bare_integral(n, 0, 1, 1.0, 2.0, 0.5)


class TestFloatRange:
    """y, 1/(y - 1) or the closed form's powers outside float range give ValueError, never another error.

    The batch gives None at such a point and `bare_integral`'s result elsewhere.
    """

    @pytest.mark.parametrize("k1,k2,alpha", [
        (1e200, 1e200, 1.0),      # the squares overflow: y is NaN
        (1e-170, 1e-170, 1e-170),  # the squares and 2 k1 k2 underflow: 0/0
        (1.0, 1.0, 1e-9),          # y rounds to 1
        (1e200, 1.0, 1.0),         # y overflows to inf
    ])
    def test_y_param_typed_error(self, k1, k2, alpha):
        with pytest.raises(ValueError, match="float arithmetic"):
            y_param(k1, k2, alpha)

    def test_bare_integral_tiny_wavenumbers(self):
        with pytest.raises(ValueError, match="float arithmetic"):
            bare_integral(1, 0, 0, 1e-170, 1e-170, 1e-170)

    @pytest.mark.parametrize("k1,k2,alpha", [
        (1.0, 1e16, 1.0),        # k2 ** 22 and (k2/k1) ** 20 overflow
        (1e-16, 1.0, 1.0),       # (k2/k1) ** 20 overflows
        (1e-16, 1e-16, 1e-16),   # k2 ** 22 underflows to 0
    ])
    def test_powers_out_of_float_range(self, k1, k2, alpha):
        message = re.escape(f"leave the float range (k1={k1!r}, k2={k2!r}, alpha={alpha!r})")
        with pytest.raises(ValueError, match=message):
            bare_integral(21, 10, 10, k1, k2, alpha)
        results = closedform.bare_integral_batch(21, 10, 10, [1.0, k1], [1.0, k2], [1.0, alpha])
        assert results == [bare_integral(21, 10, 10, 1.0, 1.0, 1.0), None]

    @pytest.mark.filterwarnings("error")
    def test_r_out_of_float_range(self):
        # R(l, 21, y) overflows in floats at y - 1 ~ 5e-16
        message = re.escape("leave the float range (k1=1.0, k2=1.0, alpha=3e-08)")
        with pytest.raises(ValueError, match=message):
            bare_integral(21, 10, 10, 1.0, 1.0, 3e-8)
        alpha = [1.0, 0.5, 3e-8, 0.1]
        results = closedform.bare_integral_batch(21, 10, 10, [1.0] * 4, [1.0] * 4, alpha)
        assert results[2] is None
        assert results[:2] + results[3:] == [bare_integral(21, 10, 10, 1.0, 1.0, a) for a in (1.0, 0.5, 0.1)]

    @pytest.mark.filterwarnings("error")
    def test_equal_order_out_of_float_range(self):
        # Q_0(y)/(2 k1 k2) overflows: 2 k1 k2 is subnormal (true value ~1.4e319)
        point = (1e-160, 1.5e-160, 1e-160)
        message = re.escape("leave the float range (k1=1e-160, k2=1.5e-160, alpha=1e-160)")
        with pytest.raises(ValueError, match=message):
            two_bessel_equal_order(0, *point)
        with pytest.raises(ValueError, match=message):
            bare_integral(1, 0, 0, *point)
        results = closedform.bare_integral_batch(1, 0, 0, [1.0, 1e-160, 1.0], [1.0, 1.5e-160, 1.0], [1.0, 1e-160, -1.0])
        assert results == [bare_integral(1, 0, 0, 1.0, 1.0, 1.0), None, None]

    def test_condition_number(self):
        with pytest.raises(ValueError, match="not finite"):
            closedform.condition_number(1e-170, 1e-170, 1e-170)
        with pytest.raises(ValueError, match="not finite"):
            closedform.condition_number(1e200, 1e200, 1.0)
        assert closedform.condition_number(1e200, 1.0, 1.0) == 0.0
        assert closedform.condition_number(1.0, 1.0, 1e-9) == pytest.approx(2e18, rel=1e-15)


class TestRescueAccuracy:
    """Rows the 40-digit rescue takes, against perfbench/reference.py (mpmath, no besselrad import).

    The continued-fraction seed missed the first two: 2.5e-5 and 8.9e-7.  The
    last three lie below y - 1 = 1e-6, where the rescue was not tried and the
    float sum returned -1.5e40, 4.6e18 and -9.9e36.
    """

    @pytest.mark.parametrize("args,reference", [
        ((13, 6, 6, 1.0, 1.0, 0.01), 1.9958781039877128e+31),
        ((11, 5, 6, 0.903182338640532, 0.9018709491666433, 0.004031186492268727),
         6.480844926575361e+25),
        ((9, 4, 4, 1.0, 1.0, 1e-3), 2.5200006000004044e+27),
        ((5, 2, 2, 1.0, 1.0, 1e-4), 3.000000015000003e+16),
        ((7, 3, 3, 1.0, 1.0, 1e-4), 6.0000000179999985e+25),
    ])
    def test_within_acceptance_tolerance(self, args, reference):
        assert bare_integral(*args).value == pytest.approx(reference, rel=1e-7)


NEAR_Y_MINUS_1 = (1e-1, 1e-4, 1e-8, 1e-12)


def _near_point(t: float) -> tuple[float, float, float]:
    """(k1, k2, alpha) at y - 1 = t (to rounding), with k2/k1 = 1 + sqrt(t)/2."""
    k1 = 0.8
    k2 = k1 * (1.0 + 0.5 * math.sqrt(t))
    return k1, k2, math.sqrt(2.0 * k1 * k2 * t - (k1 - k2) ** 2)


class TestHankelRoute:
    """The Hankel route near y = 1, against perfbench/reference.py (mpmath, no besselrad import).

    One order (n, l1, l2) for each l3 = 0..20, with l1, l2 <= 10, at the
    points `_near_point` gives for y - 1 = 1e-1, 1e-4, 1e-8 and 1e-12.
    """

    REFERENCE = {
        (1, 1, 1): (0.45500122456908026, 3.0723444904544848, 6.684754871885541, 10.282873099390526),
        (3, 2, 1): (0.1740278838784574, -3827.969437934759, -40349911.76498591, -403707506627.5294),
        (3, 4, 2): (-0.7906901224142029, -4678.3301420738535, -45793739.05640089, -457765426350.04395),
        (5, 2, 1): (-137.36321000533746, -278251862.57517296, -2.8380177922426764e+16,
                    -2.838577552462988e+24),
        (5, 4, 0): (92.48529438045453, 47716507.2306897, 3588731017610312.5, 3.576403258493009e+23),
        (7, 5, 0): (-9550.484683731902, -36751158689379.09, -3.6959181832774926e+25,
                    -3.696070352767858e+37),
        (7, 4, 2): (-4647.849380873023, 23596647805343.258, 2.5129981890203997e+25,
                    2.5145552216886706e+37),
        (9, 5, 2): (4940667.97906022, 3.933009304349955e+18, 3.6413947062981402e+34,
                    3.6383515121358474e+50),
        (9, 7, 1): (-1616734.264779382, 1.3366214557301762e+19, 1.4201520543132355e+35,
                    1.4209860976120263e+51),
        (11, 5, 4): (-430056433.5721857, 3.510748467294606e+24, 3.749554548773919e+44,
                     3.7519936430768195e+64),
        (11, 7, 3): (-1311185497.0574648, -7.189317693152148e+24, -7.346954351915223e+44,
                     -7.348474467436716e+64),
        (13, 8, 3): (-560698998816.521, 6.157720299161189e+30, 6.59090299988538e+54,
                     6.595300218743856e+78),
        (13, 7, 5): (1991312267164.7532, 2.669931715257202e+30, 2.6043106715152064e+54,
                     2.60360447530284e+78),
        (15, 8, 5): (-1333827849906967.8, -7.838928973106774e+36, -8.124496993459954e+64,
                     -8.127359326759721e+92),
        (15, 10, 4): (1406766590503555.8, -2.3151027454039354e+36, -2.930359812405992e+64,
                      -2.936772226399499e+92),
        (17, 8, 7): (3.2712657783876244e+18, 6.759402816718997e+42, 6.813034246023938e+74,
                     6.813520687495196e+106),
        (17, 10, 6): (-1.1400272708546423e+18, 1.1449961630754325e+43, 1.2423220958529094e+75,
                      1.2433194979348225e+107),
        (19, 10, 7): (-4.605548053146584e+21, 5.182697589934962e+48, 6.601627834079688e+84,
                      6.616479283757728e+120),
        (19, 10, 8): (-3.4017751825553975e+21, -2.7991225590511e+49, -2.9378119899399346e+85,
                      -2.939221033911781e+121),
        (21, 10, 9): (-7.968074732774409e+22, -6.037957736500561e+55, -6.515382842024948e+95,
                      -6.52031005185441e+135),
        (21, 10, 10): (1.5034439205405344e+25, 4.5850612877414754e+55, 4.719244765832228e+95,
                       4.720595141665137e+135),
    }

    def test_grid_covers_every_coupling_order(self):
        assert sorted(closedform.coupling_route(*order)[0] for order in self.REFERENCE) == list(range(21))

    @pytest.mark.parametrize("order", list(REFERENCE))
    def test_accepted_values_within_their_bound(self, order):
        # the error bound of an accepted value grows with the digits its sum loses
        n, l1, l2 = order
        k1, k2, alpha = zip(*map(_near_point, NEAR_Y_MINUS_1))
        found = closedform._hankel_values(l1, l2, n, k1, k2, alpha)
        for (value, lost), reference in zip(found, self.REFERENCE[order]):
            assert value is None or lost <= 2.0
            if value is not None:
                assert abs(value - reference) <= 4e-15 * 10 ** max(lost, 0.0) * abs(reference)

    def test_row_is_the_hankel_sum(self):
        # a HANKEL result is the Hankel sum itself, bit for bit: no round trip through the 3j symbol
        rng = random.Random(5)
        rows = 0
        for n, l1, l2 in self.REFERENCE:
            for _ in range(20):
                k2, alpha = 1.0 + rng.uniform(-0.05, 0.05), 10.0 ** rng.uniform(-3.0, -1.0)
                result = bare_integral(n, l1, l2, 1.0, k2, alpha)
                if result.method is Method.HANKEL:
                    rows += 1
                    assert result.value == closedform._hankel_values(l1, l2, n, [1.0], [k2], [alpha])[0][0]
        assert rows >= 300

    @given(
        st.sampled_from([(13, 6, 6), (9, 4, 4), (21, 10, 10), (12, 8, 5), (16, 7, 9), (7, 3, 3)]),
        st.floats(0.5, 2.0), st.floats(-1e-3, 1e-3), st.floats(-6.0, -1.5), st.integers(-20, 20),
    )
    def test_scale_covariance(self, order, k1, delta, log_alpha, log2_c):
        # I(c k1, c k2, c alpha) = c^-(n+1) I; with c a power of 2 the scaled inputs are exact
        n, l1, l2 = order
        c = 2.0**log2_c
        k2, alpha = k1 * (1.0 + delta), 10.0**log_alpha
        base = bare_integral(n, l1, l2, k1, k2, alpha)
        assume(base.method is Method.HANKEL)
        scaled = bare_integral(n, l1, l2, c * k1, c * k2, c * alpha)
        assert scaled.method is Method.HANKEL
        assert scaled.value == pytest.approx(c ** -(n + 1) * base.value, rel=1e-15)

    @pytest.mark.parametrize("l1", range(11))
    def test_set_equals_fraction_reference(self, l1):
        # every order with l2 <= 10 and n <= 22 (l3 <= 20), the coefficients rounded once from
        # exact Fractions: (1/2) i^q a_i(l1) a_j(l2) times (-e - 1)! or (-1)^e/e!, and psi(e + 1)
        # = H_e - gamma from a Fraction sum
        def a(l, k):
            return Fraction(math.factorial(l + k), 2**k * math.factorial(k) * math.factorial(l - k))

        for l2, n in itertools.product(range(11), range(1, 23)):
            hs = closedform._hankel_set(l1, l2, n)
            e_low, e_high = 1 - n, l1 + l2 + 1 - n
            width = e_high - e_low + 1
            coef, js, rows = [], [], []
            for s, sign in enumerate((1, -1)):
                for i, j in itertools.product(range(l1 + 1), range(l2 + 1)):
                    e = i + j + 1 - n
                    weight = Fraction(math.factorial(-e - 1)) if e < 0 else Fraction((-1) ** e, math.factorial(e))
                    c = Fraction(1, 2) * a(l1, i) * a(l2, j) * weight
                    # Re(i^q Z) = Re(i^q) Re Z - Im(i^q) Im Z, and one of the two is 0
                    re_q, im_q = [(1, 0), (0, 1), (-1, 0), (0, -1)][(i - l1 - 1 + sign * (j - l2 - 1)) % 4]
                    coef.append(float(c * (re_q or -im_q)))
                    js.append(j)
                    rows.append((0 if re_q else 2 * width) + s * width + e - e_low)
            assert hs.coef.tolist() == coef and hs.j.tolist() == js and hs.row.tolist() == rows
            assert (hs.e_low, hs.e_high) == (e_low, e_high)
            gamma = closedform._EULER_GAMMA
            psi = [float(sum(Fraction(1, k) for k in range(1, e + 1))) - gamma for e in range(e_high + 1)]
            assert list(hs.psi) == psi

    def test_replaces_the_rescue(self, monkeypatch):
        calls = []
        dec = specfun.paper_q_combination_all_dec
        monkeypatch.setattr(specfun, "paper_q_combination_all_dec",
                            lambda *a, **k: calls.append(a) or dec(*a, **k))
        result = bare_integral(13, 6, 6, 1.0, 1.0, 0.01)
        assert result.method is Method.HANKEL
        assert not calls

    def test_batch_reports_each_method(self):
        # the Hankel route at alpha 1e-3, the float sum at y - 1 = 1.25, the rescue at k2/k1 = 2.6
        k1, k2, alpha = [1.0, 1.0, 1.0], [1.0, 1.0, 2.6], [1e-3, 1.5, 0.5]
        methods = [r.method for r in closedform.bare_integral_batch(3, 4, 2, k1, k2, alpha)]
        assert methods == [bare_integral(3, 4, 2, *p).method for p in zip(k1, k2, alpha)]
        assert methods[0] is Method.HANKEL and methods[1] is methods[2] is Method.EQ_2_8
        _assert_batch_matches_scalar(3, 4, 2, k1, k2, alpha)


class TestCouplingRoute:
    @given(st.integers(0, 20), st.integers(0, 20), st.integers(1, 30))
    def test_parity_and_triangle(self, l1, l2, n):
        l3 = n - 1 if (l1 + l2 + n - 1) % 2 == 0 else n - 2
        if l3 < 0 or not abs(l1 - l2) <= l3 <= l1 + l2:
            with pytest.raises(FormulaInapplicable):
                closedform.coupling_route(n, l1, l2)
            return
        assert closedform.coupling_route(n, l1, l2) == (l3, n - l3)


class TestCouplingSet:
    @pytest.mark.parametrize("l1", range(11))
    def test_reproduces_coupling_terms(self, l1):
        # every set with l1, l2 <= 10 (those of the benchmark's order_scan), at both precisions
        for l2 in range(11):
            for l3 in range(abs(l1 - l2), l1 + l2 + 1, 2):
                terms = list(closedform._coupling_terms(l1, l2, l3))
                cs = closedform._coupling_set(l1, l2, l3)
                if not terms:
                    assert cs is None
                    continue
                assert cs.index.tolist() == [[t[0] for t in terms], [t[1] for t in terms]]
                assert cs.l_need == max(t[1] for t in terms)
                assert all(type(c) is Decimal for c in cs.exact)
                assert (list(cs.exact), cs.coef.tolist()) == _coefficients_at_80_digits(l1, l2, l3, terms)

    @pytest.mark.parametrize("last", [7, 8])
    def test_folded_root_is_rounded_once(self, last):
        # at a tie of the 41st digit, just above and just below it, for both parities of the
        # 40th digit (half-even), and where num / den is far above or below 1
        tie = 10 * (3 * 10**39 + 12345678901234567891234560 + last) + 5
        cases = [(tie**2 + d, 10**82) for d in (-1, 0, 1)] + [(2 * 10**201, 1), (3, 7 * 10**200), (49, 4)]
        for num, den in cases:
            for sign in (1, -1):
                assert closedform._signed_root(sign, num, den) == _rounded_root(sign, num, den), (num, den)

    @pytest.mark.parametrize("l1", [14, 17, 20])
    def test_folded_coefficients_of_the_largest_sets(self, l1):
        # the sets up to l1 = l2 = l3 = 20, past those of the benchmark
        for l2 in range(l1, 21):
            for l3 in range(l2 - l1, min(l1 + l2, 20) + 1, 2):
                cs = closedform._coupling_set(l1, l2, l3)
                terms = list(closedform._coupling_terms(l1, l2, l3))
                expected = _coefficients_at_80_digits(l1, l2, l3, terms)
                assert ((list(cs.exact), cs.coef.tolist()) if cs else ([], [])) == expected

    def test_rescue_reuses_compiled_set(self, monkeypatch):
        # both calls take the 40-digit rescue; the set's symbols are evaluated once, by its compile
        sixj, rescues = [], []
        w6 = closedform._six_j_parts
        monkeypatch.setattr(closedform, "_six_j_parts", lambda *a: sixj.append(a) or w6(*a))
        dec = specfun.paper_q_combination_all_dec
        monkeypatch.setattr(specfun, "paper_q_combination_all_dec",
                            lambda *a, **k: rescues.append(a) or dec(*a, **k))
        closedform._coupling_set.cache_clear()
        # y - 1 = 1.1 and 1.5: far from y = 1, where the Hankel route is not tried
        bare_integral(3, 4, 2, 1.0, 2.6, 0.5)
        bare_integral(3, 4, 2, 1.0, 3.0, 0.5)
        assert len(rescues) == 2
        assert len(sixj) == closedform._coupling_set(4, 2, 2).index.shape[1]


def _coefficients_at_80_digits(l1, l2, l3, terms):
    """Each term's coefficient, rounded once to the rescue's digits and to a double.

    The coefficient is phase * sqrt(2 l3 + 1) * sqrt(C(2 l3, 2 scr)) * (2 l + 1) * weight
    / (l1 l2 l3; 0 0 0): one sign times the root of one reduced fraction, taken at 80 digits.
    """
    w3 = wigner_3j(AngularMomenta3j(l1, l2, l3, 0, 0, 0))
    phase = (-1) ** ((l1 + l2 - l3) // 2)
    exact, coef, ctx = [], [], Context(prec=80)
    for scr, l, sign, (num, den) in terms:
        radicand = (2 * l3 + 1) * math.comb(2 * l3, 2 * scr) * (2 * l + 1) ** 2 * Fraction(num, den) / w3.radicand
        root = ctx.sqrt(ctx.divide(Decimal(radicand.numerator), Decimal(radicand.denominator)))
        if phase * sign * w3.sign < 0:
            root = root.copy_negate()
        exact.append(Context(prec=closedform._RESCUE_DIGITS).plus(root))
        coef.append(float(root))
    return exact, coef


def _rounded_root(sign, num, den):
    """sign * sqrt(num / den) at 150 digits, rounded to the rescue's digits."""
    root = Context(prec=150).sqrt(Context(prec=150).divide(Decimal(num), Decimal(den)))
    return Context(prec=closedform._RESCUE_DIGITS).plus(root if sign > 0 else root.copy_negate())


def _scalar_results(n, l1, l2, k1, k2, alpha):
    return [bare_integral(n, l1, l2, a, b, c) for a, b, c in zip(k1, k2, alpha)]


def _bits(results):
    """Each result's value and condition as hex and its method, None for None."""
    return [None if r is None else (r.value.hex(), r.method, r.condition.hex()) for r in results]


def _assert_batch_matches_scalar(n, l1, l2, k1, k2, alpha):
    """The batch gives None wherever `bare_integral` raises a ValueError, its result bit for bit elsewhere."""
    expected = []
    for point in zip(k1, k2, alpha):
        try:
            expected.append(bare_integral(n, l1, l2, *point))
        except ValueError:
            expected.append(None)
    results = closedform.bare_integral_batch(n, l1, l2, k1, k2, alpha)
    assert results == expected
    assert _bits(results) == _bits(expected)


class TestBareIntegralBatch:
    @given(
        st.integers(0, 6), st.integers(0, 6), st.integers(1, 12),
        st.lists(
            st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(1e-4, 3.0)),
            min_size=1, max_size=12,
        ),
    )
    def test_equals_scalar_bit_for_bit(self, l1, l2, n, points):
        k1, k2, alpha = (list(v) for v in zip(*points))
        try:
            expected = _scalar_results(n, l1, l2, k1, k2, alpha)
        except FormulaInapplicable:
            with pytest.raises(FormulaInapplicable):
                closedform.bare_integral_batch(n, l1, l2, k1, k2, alpha)
            return
        results = closedform.bare_integral_batch(n, l1, l2, k1, k2, alpha)
        assert results == expected
        assert _bits(results) == _bits(expected)

    def test_rescue_and_near_unity_points(self, monkeypatch):
        # (4, 2, 3) at k2/k1 in [2.6, 3.6], alpha 0.5 cancels and takes the
        # 40-digit rescue; k1 = k2, alpha <= 1e-3 puts y - 1 below 1e-6,
        # where Q is seeded by the forward recurrence, in the batch too
        rescues = []
        dec = specfun.paper_q_combination_all_dec
        monkeypatch.setattr(specfun, "paper_q_combination_all_dec",
                            lambda *a, **k: rescues.append(a) or dec(*a, **k))
        k1 = [1.0] * 9
        k2 = [2.6, 3.0, 3.3, 3.6, 1.0, 1.0, 1.0, 1.0, 1.0]
        alpha = [0.5, 0.5, 0.5, 0.5, 1e-3, 5e-4, 1e-5, 1e-2, 1.0]
        for n, l1, l2 in ((3, 4, 2), (1, 3, 3), (2, 1, 1), (9, 4, 4)):
            rescues.clear()
            expected = _scalar_results(n, l1, l2, k1, k2, alpha)
            scalar = closedform.bare_integral
            monkeypatch.setattr(closedform, "bare_integral", None)  # every point stays in the batch
            results = closedform.bare_integral_batch(n, l1, l2, k1, k2, alpha)
            monkeypatch.setattr(closedform, "bare_integral", scalar)
            assert results == expected
            assert _bits(results) == _bits(expected)
        rescues.clear()
        closedform.bare_integral_batch(3, 4, 2, k1, k2, alpha)
        assert rescues

    def test_errors_match_scalar(self):
        # the order's errors are raised; a point's error leaves None there
        with pytest.raises(FormulaInapplicable):
            closedform.bare_integral_batch(1, 2, 0, [1.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="lambda1"):
            closedform.bare_integral_batch(2, -1, 1, [1.0], [1.0], [1.0])
        k1, k2, alpha = [1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 1.0], [1.0, -1.0, 1e-9, 0.5]
        with pytest.raises(ValueError, match=re.escape("alpha must be positive and finite, got -1.0")):
            bare_integral(2, 0, 1, k1[1], k2[1], alpha[1])
        results = closedform.bare_integral_batch(2, 0, 1, k1, k2, alpha)
        assert results[1] is None and results[2] is None
        _assert_batch_matches_scalar(2, 0, 1, k1, k2, alpha)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k1,k2,alpha", [
        ([1.0, 1.0], [1.0, 1.0], [3e-8, -1.0]),              # R overflows before an invalid alpha
        ([1.0, 1.0], [1.0, 1.0], [-1.0, 3e-8]),              # an invalid alpha before R overflows
        ([1.0, 1.0, 1.0], [1.0, 1e16, 1.0], [0.5, 1.0, 1.0]),  # powers of k2 overflow between valid points
    ])
    def test_first_failing_point(self, k1, k2, alpha):
        # the batch goes on past its first failing point, which `bare_integral` refuses
        with pytest.raises(ValueError):
            _scalar_results(21, 10, 10, k1, k2, alpha)
        _assert_batch_matches_scalar(21, 10, 10, k1, k2, alpha)

    # 1.3e-160, 1.3e-160, 1e-170 has y > 1 in floats but no finite 1/(y - 1);
    # 1e-150 three times has both, with (k1 - k2)^2 + alpha^2 = 1e-300
    edge = st.sampled_from([1.0, 0.7, 2.5, 1e-3, 3e-8, 0.0, -1.0, math.inf, math.nan,
                            1e-170, 1.3e-160, 1e-150, 1e200, 1e16, 1e-16])

    @given(st.sampled_from([(1, 0, 0), (2, 0, 1), (3, 4, 2), (21, 10, 10)]),
           st.lists(st.tuples(edge, edge, edge), min_size=1, max_size=5))
    @example((1, 0, 0), [(1.0, 1.0, 1.0), (1.3e-160, 1.3e-160, 1e-170)])
    @example((3, 4, 2), [(1.0, 1.0, 1.0), (1.3e-160, 1.3e-160, 1e-170)])
    @example((1, 0, 0), [(1.0, 1.0, 1.0), (1e-150, 1e-150, 1e-150)])
    @example((1, 2, 2), [(1.0, 1.0, 1.0), (1e-150, 1e-150, 1e-150)])
    def test_edge_inputs_match_scalar(self, order, points):
        k1, k2, alpha = (list(v) for v in zip(*points))
        with np.errstate(all="ignore"):
            _assert_batch_matches_scalar(*order, k1, k2, alpha)

    def test_one_point_batches_seed_each_chain_once(self, monkeypatch):
        # (4, 2, 3) and (4, 2, 5) at k2/k1 = 2.6, alpha 0.5 take the 40-digit rescue
        expected = {n: [bare_integral(n, 4, 2, 1.0, 2.6, 0.5)] for n in (3, 5)}
        specfun._CHAINS.clear()
        seeds, rescues = [], []
        seed, dec = specfun._q_seed, specfun.paper_q_combination_all_dec
        monkeypatch.setattr(specfun, "_q_seed", lambda lmax, y, prec: seeds.append(
            (lmax, prec, np.array(y, dtype=float).tobytes())) or seed(lmax, y, prec))
        monkeypatch.setattr(specfun, "paper_q_combination_all_dec",
                            lambda *a, **k: rescues.append(a) or dec(*a, **k))
        for _ in range(3):
            for n in (3, 5):
                assert closedform.bare_integral_batch(n, 4, 2, [1.0], [2.6], [0.5]) == expected[n]
        assert len(rescues) == 6
        assert {prec for _, prec, _ in seeds} == {0, 40}
        assert len(seeds) == len(set(seeds))

    def test_coupling_order_above_the_maximum(self):
        # (22, 10, 11) routes to l3 = 21: both paths refuse the order
        with pytest.raises(ValueError, match="lambda3=21 exceeds the supported maximum 20"):
            bare_integral(22, 10, 11, 1.0, 1.2, 0.5)
        with pytest.raises(ValueError, match="lambda3=21 exceeds the supported maximum 20"):
            closedform.bare_integral_batch(22, 10, 11, [1.0], [1.2], [0.5])

    def test_prefactor_out_of_float_range(self):
        # sqrt(3) / (2 k1 k2^2) overflows to inf (the closed form returned inf)
        message = re.escape("leave the float range (k1=1e-103, k2=1e-103, alpha=1e-103)")
        with pytest.raises(ValueError, match=message):
            bare_integral(2, 0, 1, 1e-103, 1e-103, 1e-103)
        results = closedform.bare_integral_batch(2, 0, 1, [1.0, 1e-103], [1.0, 1e-103], [1.0, 1e-103])
        assert results == [bare_integral(2, 0, 1, 1.0, 1.0, 1.0), None]
