import math
from fractions import Fraction
import itertools
from itertools import permutations

import mpmath as mp
import pytest
import sympy.physics.wigner as spw
from hypothesis import assume, example, given, strategies as st

from besselrad import closedform
from besselrad.wigner import (
    _FACT,
    _J_MAX,
    AngularMomenta3j,
    WignerValue,
    _orthogonality_defect,
    _six_j,
    _three_j,
    threej_000_nonzero,
    wigner_3j,
    wigner_6j,
)


def w3(j1, j2, j3, m1, m2, m3):
    return wigner_3j(AngularMomenta3j(j1, j2, j3, m1, m2, m3))


def _triangle_fraction(a, b, c):
    return Fraction(_FACT[a + b - c] * _FACT[a - b + c] * _FACT[-a + b + c], _FACT[a + b + c + 1])


def _signed_sqrt(coeff, radicand):
    """coeff * sqrt(radicand) as a WignerValue."""
    if coeff == 0:
        return WignerValue.zero()
    return WignerValue(1 if coeff > 0 else -1, coeff * coeff * radicand)


def reference_3j(j1, j2, j3, m1, m2, m3):
    """The Racah sum of the 3j symbol, one reduced Fraction per term."""
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return WignerValue.zero()
    s = Fraction(0)
    for k in range(max(0, j2 - j3 - m1, j1 - j3 + m2), min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1):
        den = (
            _FACT[k] * _FACT[j1 + j2 - j3 - k] * _FACT[j1 - m1 - k] * _FACT[j2 + m2 - k]
            * _FACT[j3 - j2 + m1 + k] * _FACT[j3 - j1 - m2 + k]
        )
        s += Fraction(-1 if k % 2 else 1, den)
    radicand = _triangle_fraction(j1, j2, j3) * (
        _FACT[j1 - m1] * _FACT[j1 + m1] * _FACT[j2 - m2] * _FACT[j2 + m2]
        * _FACT[j3 - m3] * _FACT[j3 + m3]
    )
    return _signed_sqrt((-1 if (j1 - j2 - m3) % 2 else 1) * s, radicand)


def _triads(j1, j2, j3, j4, j5, j6):
    return (j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3)


def _triads_close(js):
    return all(abs(a - b) <= c <= a + b for a, b, c in _triads(*js))


def _six_j_range(j1, j2, j3, j4, j5, j6):
    """kmin, kmax of the 6j Racah sum: the largest triad sum, the smallest sum of opposite pairs."""
    triads = _triads(j1, j2, j3, j4, j5, j6)
    return max(map(sum, triads)), min(j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4)


def reference_6j(j1, j2, j3, j4, j5, j6):
    """The Racah sum of the 6j symbol, one reduced Fraction per term."""
    triads = _triads(j1, j2, j3, j4, j5, j6)
    if not _triads_close((j1, j2, j3, j4, j5, j6)):
        return WignerValue.zero()
    a = [sum(t) for t in triads]
    b = (j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4)
    kmin, kmax = _six_j_range(j1, j2, j3, j4, j5, j6)
    s = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = math.prod(_FACT[k - x] for x in a) * math.prod(_FACT[x - k] for x in b)
        s += Fraction(-_FACT[k + 1] if k % 2 else _FACT[k + 1], den)
    radicand = math.prod((_triangle_fraction(*t) for t in triads), start=Fraction(1))
    return _signed_sqrt(s, radicand)


def _sympy_exact(ref):
    """A sympy symbol value as (sign, squared value)."""
    sign = 1 if ref.is_positive else (-1 if ref.is_negative else 0)
    return sign, Fraction(int((ref**2).p), int((ref**2).q))


@st.composite
def _three_j_args(draw):
    j1, j2 = draw(st.integers(0, _J_MAX)), draw(st.integers(0, _J_MAX))
    j3 = draw(st.integers(abs(j1 - j2), min(j1 + j2, _J_MAX)))
    m1 = draw(st.integers(-j1, j1))
    m2 = draw(st.integers(max(-j2, -j3 - m1), min(j2, j3 - m1)))
    return j1, j2, j3, m1, m2, -m1 - m2


@st.composite
def _six_j_args(draw):
    # every triad of {j1 j2 j3; j4 j5 j6} closes: (j1 j2 j3), (j4 j5 j3), (j1 j5 j6), (j4 j2 j6)
    j1, j2 = draw(st.integers(0, _J_MAX)), draw(st.integers(0, _J_MAX))
    j3 = draw(st.integers(abs(j1 - j2), min(j1 + j2, _J_MAX)))
    j4 = draw(st.integers(0, _J_MAX))
    j5 = draw(st.integers(abs(j4 - j3), min(j4 + j3, _J_MAX)))
    lo, hi = max(abs(j1 - j5), abs(j4 - j2)), min(j1 + j5, j4 + j2, _J_MAX)
    assume(lo <= hi)
    return j1, j2, j3, j4, j5, draw(st.integers(lo, hi))


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


class TestIntegerRacahSums:
    """The integer sums over one common denominator equal the Fraction-per-term Racah sums."""

    def test_every_3j_up_to_6(self):
        # the uncached function: these symbols would otherwise stay in the cache for the whole test run
        three_j = _three_j.__wrapped__
        for j1 in range(7):
            for j2 in range(7):
                for j3 in range(7):
                    for m1 in range(-j1, j1 + 1):
                        for m2 in range(-j2, j2 + 1):
                            for m3 in range(-j3, j3 + 1):
                                js = (j1, j2, j3, m1, m2, m3)
                                assert three_j(*js) == reference_3j(*js), js

    def test_every_6j_up_to_6(self):
        for js in itertools.product(range(7), repeat=6):
            assert _six_j(*js) == reference_6j(*js), js

    @given(_three_j_args())
    @example((60, 60, 60, 0, 0, 0))
    @example((60, 40, 30, 17, -23, 6))
    def test_3j_samples(self, js):
        assert _three_j.__wrapped__(*js) == reference_3j(*js)

    @given(_six_j_args())
    @example((60, 60, 60, 60, 60, 60))
    @example((30, 40, 50, 35, 45, 40))
    def test_6j_samples(self, js):
        assert wigner_6j(*js) == reference_6j(*js)

    def test_samples_reach_several_terms(self):
        # the @example symbols above sum many terms: the common denominator is exercised
        assert _six_j_range(60, 60, 60, 60, 60, 60) == (180, 240)
        assert _six_j_range(30, 40, 50, 35, 45, 40) == (130, 150)

    @pytest.mark.parametrize(
        "js", [(30, 40, 50, 7, -12, 5), (60, 45, 30, -20, 11, 9), (50, 50, 60, 0, 0, 0)]
    )
    def test_3j_sympy_large(self, js):
        mine = w3(*js)
        assert (mine.sign, mine.radicand) == _sympy_exact(spw.wigner_3j(*js))

    @pytest.mark.parametrize("js", [(30, 40, 50, 35, 45, 40), (60, 55, 45, 40, 50, 60)])
    def test_6j_sympy_large(self, js):
        mine = wigner_6j(*js)
        assert (mine.sign, mine.radicand) == _sympy_exact(spw.wigner_6j(*js))

    def test_coupling_set_6j_are_stretched(self, monkeypatch):
        # {l1 l2 l3; scr l3-scr l} has j4 + j5 = j3, so the triad sum j1 + j2 + j3 equals the
        # pair sum j1 + j2 + j4 + j5: once its triads close (else the symbol is 0 before any
        # sum), kmin == kmax, and the Racah sum is one product
        calls = []
        monkeypatch.setattr(closedform, "wigner_6j", lambda *js: calls.append(js) or WignerValue.zero())
        for l1, l2, l3 in itertools.product(range(21), repeat=3):
            for _ in closedform._coupling_terms(l1, l2, l3):
                pass
        summed = [js for js in calls if _triads_close(js)]
        assert len(summed) > len(calls) // 2
        for js in summed:
            kmin, kmax = _six_j_range(*js)
            assert kmin == kmax, js
