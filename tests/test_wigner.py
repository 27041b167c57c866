import math
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import pytest
import sympy.physics.wigner as spw
from hypothesis import given, strategies as st

from besselrad.wigner import (
    AngularMomenta3j,
    WignerValue,
    _orthogonality_defect,
    threej_000_nonzero,
    wigner_3j,
    wigner_6j,
)


def w3(j1, j2, j3, m1, m2, m3):
    return wigner_3j(AngularMomenta3j(j1, j2, j3, m1, m2, m3))


class TestWignerValue:
    def test_zero_representation(self):
        z = WignerValue.zero()
        assert z.sign == 0 and z.radicand == 0
        assert float(z) == 0.0
        assert z.exact_str() == "0"

    def test_reduced_fraction(self):
        v = WignerValue(1, Fraction(4, 6))
        assert (v.radicand_num, v.radicand_den) == (2, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            WignerValue(2, Fraction(1))
        with pytest.raises(ValueError):
            WignerValue(0, Fraction(1, 3))
        with pytest.raises(ValueError):
            WignerValue(1, Fraction(-1, 3))


class TestThreeJ:
    def test_frozen_values(self):
        v = w3(1, 1, 0, 0, 0, 0)
        assert v.sign == -1 and v.radicand == Fraction(1, 3)
        assert float(v) == pytest.approx(-0.5773502691896257, rel=1e-15)

    def test_parity_zero(self):
        assert w3(1, 1, 1, 0, 0, 0) == WignerValue.zero()

    def test_triangle_zero(self):
        assert w3(2, 1, 4, 0, 0, 0) == WignerValue.zero()

    def test_m_sum_zero_required(self):
        assert w3(1, 1, 2, 1, 0, 0) == WignerValue.zero()

    def test_projection_bound_enforced(self):
        with pytest.raises(ValueError):
            AngularMomenta3j(1, 1, 2, 2, 0, -2)

    def test_momentum_cap(self):
        with pytest.raises(ValueError):
            AngularMomenta3j(61, 61, 0, 0, 0, 0)

    def test_sympy_cross_check_exact(self):
        # exact cross-validation: sympy returns symbolic surds; compare squares
        for j1 in range(4):
            for j2 in range(4):
                for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                    for m1 in range(-j1, j1 + 1):
                        for m2 in range(-j2, j2 + 1):
                            m3 = -m1 - m2
                            if abs(m3) > j3:
                                continue
                            mine = w3(j1, j2, j3, m1, m2, m3)
                            ref = spw.wigner_3j(j1, j2, j3, m1, m2, m3)
                            assert Fraction(int((ref**2).p), int((ref**2).q)) == mine.radicand
                            ref_sign = 1 if ref.is_positive else (-1 if ref.is_negative else 0)
                            assert ref_sign == mine.sign

    @pytest.mark.parametrize(
        "js",
        [(20, 20, 20, 0, 0, 0), (40, 30, 20, 5, -15, 10), (60, 60, 60, 0, 0, 0)],
    )
    def test_large_momenta_float(self, js):
        mine = float(w3(*js))
        ref = float(spw.wigner_3j(*js).n(30))
        assert mine == pytest.approx(ref, rel=1e-12)

    def test_float_within_ulps(self):
        # conversion is two correctly-rounded steps: <= 4 ulp
        for js in [(1, 1, 0, 0, 0, 0), (4, 3, 2, 1, -1, 0), (10, 10, 10, 5, -5, 0)]:
            v = w3(*js)
            if v.sign == 0:
                continue
            hi = float(v.sign * mp.sqrt(mp.mpf(v.radicand_num) / v.radicand_den))
            assert abs(float(v) - hi) <= 4 * math.ulp(abs(hi))


class TestSixJ:
    def test_frozen_values(self):
        v = wigner_6j(1, 1, 0, 1, 1, 1)
        assert v.sign == -1 and v.radicand == Fraction(1, 9)
        v = wigner_6j(1, 1, 1, 1, 1, 1)
        assert v.sign == 1 and v.radicand == Fraction(1, 36)
        assert wigner_6j(0, 0, 0, 0, 0, 0) == WignerValue(1, Fraction(1))

    def test_triad_violation_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == WignerValue.zero()

    def test_repeated_calls_equal(self):
        js = [(2, 2, 2, 2, 2, 2), (6, 6, 12, 5, 7, 9), (10, 10, 20, 10, 10, 10), (1, 1, 3, 1, 1, 1)]
        first = [wigner_6j(*j) for j in js]
        assert [wigner_6j(*j) for j in js] == first

    def test_sympy_cross_check(self):
        for js in [(2, 2, 2, 2, 2, 2), (3, 2, 1, 2, 3, 2), (4, 4, 4, 4, 4, 4), (5, 4, 3, 2, 3, 4)]:
            mine = wigner_6j(*js)
            ref = spw.wigner_6j(*js)
            assert Fraction(int((ref**2).p), int((ref**2).q)) == mine.radicand
            ref_sign = 1 if ref.is_positive else (-1 if ref.is_negative else 0)
            assert ref_sign == mine.sign

    def test_tetrahedral_symmetry(self):
        js = range(5)
        for j1 in js:
            for j2 in js:
                for j3 in js:
                    for j4 in js:
                        for j5 in js:
                            for j6 in js:
                                base = wigner_6j(j1, j2, j3, j4, j5, j6)
                                if base.sign == 0:
                                    continue
                                cols = [(j1, j4), (j2, j5), (j3, j6)]
                                for perm in permutations(cols):
                                    tops = (perm[0][0], perm[1][0], perm[2][0])
                                    bots = (perm[0][1], perm[1][1], perm[2][1])
                                    assert wigner_6j(*tops, *bots) == base
                                # swap upper/lower in the first two columns
                                assert wigner_6j(j4, j5, j3, j1, j2, j6) == base


class TestZeroPredicate:
    def test_examples(self):
        assert threej_000_nonzero(1, 1, 0)
        assert not threej_000_nonzero(1, 1, 1)
        assert threej_000_nonzero(0, 1, 1)

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_matches_symbol(self, l1, l2, l3):
        nonzero = w3(l1, l2, l3, 0, 0, 0).sign != 0
        assert nonzero == threej_000_nonzero(l1, l2, l3)


class TestOrthogonality:
    def test_exact_for_small_momenta(self):
        for j1 in range(4):
            for j2 in range(4):
                lo, hi = abs(j1 - j2), j1 + j2
                for j3 in range(lo, hi + 1):
                    for j3p in range(j3, hi + 1):
                        for m3 in range(-min(j3, j3p), min(j3, j3p) + 1):
                            assert _orthogonality_defect(j1, j2, j3, m3, j3p, m3) == 0
