"""Exact Wigner 3j and 6j symbols over big-integer rational arithmetic.

Symbols with integer angular momenta always square to a rational number,
so values are carried exactly as sign * sqrt(num/den) and converted to
float only on demand.  The Racah single-sum formulas are evaluated with
exact integer factorials; the alternating sums cancel catastrophically in
floating point, and exactness is cheap at the sizes supported here
(j <= 60).  Half-integer momenta are out of scope: they would break the
sign * sqrt(rational) closure and the radial-integral sums never need
them.

Each Racah sum runs in Python ints over one common denominator
(`_racah_sum`): every term times that denominator is a product of
factorial quotients, so no term forms a fraction.  A symbol comes first
as integer parts (`_three_j_parts`, `_six_j_parts`): its sign and its
square, (sum / den)^2 times its triangle and projection factorials, as an
unreduced numerator and denominator.  `wigner_3j` and `wigner_6j` build
their `WignerValue` from those parts, one gcd reduction per symbol; the
closed form multiplies the parts of its coupling terms and reduces none.
Every 6j the closed form asks for, {l1 l2 l3; s l3-s l}, is stretched
(j4 + j5 = j3): one upper bound of its sum, j1 + j2 + j4 + j5, equals one
lower bound, j1 + j2 + j3, so the sum has one term, and with its
triangle coefficients it is one product of factorials
(`_stretched_six_j_parts`).

Evaluation is total: non-triangular triads or projections that do not sum
to zero yield an exact zero value rather than an error.

All functions are pure.  The factorial table is built once at import and
never mutated; the 3j symbols are kept in a per-symbol cache, which is
internally locked, so concurrent use is safe.  The 6j symbols are not
cached: the closed form asks for the parts of each one once per process,
when it compiles the coupling set that needs it, and keeps the result
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

_J_MAX = 60

# largest factorial a 6j sum can request is (b-term + 1)! with
# b <= 4*_J_MAX, so build the table once out to 4*_J_MAX + 2
_FACT: tuple[int, ...] = tuple(math.factorial(i) for i in range(4 * _J_MAX + 3))


@dataclass(frozen=True)
class WignerValue:
    """Exact value sign * sqrt(radicand) with radicand a reduced fraction."""

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        # a Fraction carries its sign in the numerator: int comparisons, no Fraction arithmetic
        num = self.radicand.numerator
        if num < 0:
            raise ValueError("radicand must be non-negative")
        if (self.sign == 0) != (num == 0):
            raise ValueError("zero is represented as sign=0 with radicand 0")

    @property
    def radicand_num(self) -> int:
        return self.radicand.numerator

    @property
    def radicand_den(self) -> int:
        return self.radicand.denominator

    def __float__(self) -> float:
        # float(Fraction) is correctly rounded, sqrt adds at most one more
        # rounding: conversion stays within a couple of ulp
        return self.sign * math.sqrt(float(self.radicand))

    def exact_str(self) -> str:
        """Render as '0', 'sqrt(p/q)' or '-sqrt(p/q)'."""
        if self.sign == 0:
            return "0"
        body = f"sqrt({self.radicand.numerator}/{self.radicand.denominator})"
        return body if self.sign > 0 else "-" + body

    @classmethod
    def zero(cls) -> "WignerValue":
        return cls(0, Fraction(0))


@dataclass(frozen=True)
class AngularMomenta3j:
    """Arguments of a 3j symbol: integer momenta with projections."""

    j1: int
    j2: int
    j3: int
    m1: int
    m2: int
    m3: int

    def __post_init__(self) -> None:
        for name in ("j1", "j2", "j3"):
            j = getattr(self, name)
            if not isinstance(j, int) or j < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {j!r}")
            if j > _J_MAX:
                raise ValueError(f"{name}={j} exceeds the supported maximum {_J_MAX}")
        for jn, mn in (("j1", "m1"), ("j2", "m2"), ("j3", "m3")):
            j, m = getattr(self, jn), getattr(self, mn)
            if not isinstance(m, int) or abs(m) > j:
                raise ValueError(f"projection {mn}={m!r} must be an integer with |{mn}| <= {jn}")


def _triangle_ok(a: int, b: int, c: int) -> bool:
    return abs(a - b) <= c <= a + b


def threej_000_nonzero(l1: int, l2: int, l3: int) -> bool:
    """True iff the all-zero-projection 3j symbol is nonzero."""
    return (l1 + l2 + l3) % 2 == 0 and _triangle_ok(l1, l2, l3)


def _racah_sum(ups: tuple[int, ...], lows: tuple[int, ...], highs: tuple[int, ...]) -> tuple[int, int]:
    """The Racah series sum_k (-1)^k prod (k + u)! / (prod (k - a)! prod (b - k)!)
    over max(lows) <= k <= min(highs), as integers (total, den) with the sum
    equal to total / den.

    The common denominator takes each (k - a)! at k = kmax and each (b - k)!
    at k = kmin, where they are largest, so den / (term's denominator) is a
    product of factorial quotients and every term is an integer.  The 3j
    sum has no factorial above the line (ups = ()), the 6j sum has (k + 1)!
    (ups = (1,)).  An empty range gives (0, 1).
    """
    kmin, kmax = max(lows), min(highs)
    if kmin > kmax:
        return 0, 1
    den = 1
    for a in lows:
        den *= _FACT[kmax - a]
    for b in highs:
        den *= _FACT[b - kmin]
    total = 0
    for k in range(kmin, kmax + 1):
        term = -1 if k % 2 else 1
        for u in ups:
            term *= _FACT[k + u]
        for a in lows:
            term *= _FACT[kmax - a] // _FACT[k - a]
        for b in highs:
            term *= _FACT[b - kmin] // _FACT[b - k]
        total += term
    return total, den


def _triangle(a: int, b: int, c: int) -> tuple[int, int]:
    """The triangle coefficient (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)! as (num, den)."""
    return _FACT[a + b - c] * _FACT[a - b + c] * _FACT[-a + b + c], _FACT[a + b + c + 1]


def _parts(phase: int, total: int, den: int, num: int, rad_den: int) -> tuple[int, int, int]:
    """phase * (total / den) * sqrt(num / rad_den) as (sign, num, den), unreduced; (0, 0, 1) for zero."""
    if total == 0:
        return 0, 0, 1
    return (phase if total > 0 else -phase), total * total * num, den * den * rad_den


def _value(parts: tuple[int, int, int]) -> WignerValue:
    """The symbol sign * sqrt(num / den) of `_parts`, its radicand reduced once."""
    sign, num, den = parts
    return WignerValue(sign, Fraction(num, den))


def _three_j_parts(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> tuple[int, int, int]:
    """The 3j symbol as `_parts`, by the Racah single-sum formula."""
    if m1 + m2 + m3 != 0 or not _triangle_ok(j1, j2, j3):
        return 0, 0, 1
    total, den = _racah_sum(
        (), (0, j2 - j3 - m1, j1 - j3 + m2), (j1 + j2 - j3, j1 - m1, j2 + m2)
    )
    num, rad_den = _triangle(j1, j2, j3)
    num *= (
        _FACT[j1 - m1] * _FACT[j1 + m1]
        * _FACT[j2 - m2] * _FACT[j2 + m2]
        * _FACT[j3 - m3] * _FACT[j3 + m3]
    )
    return _parts(-1 if (j1 - j2 - m3) % 2 else 1, total, den, num, rad_den)


@lru_cache(maxsize=None)
def _three_j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> WignerValue:
    return _value(_three_j_parts(j1, j2, j3, m1, m2, m3))


def wigner_3j(a: AngularMomenta3j) -> WignerValue:
    """Exact 3j symbol by the Racah single-sum formula."""
    return _three_j(a.j1, a.j2, a.j3, a.m1, a.m2, a.m3)


def _six_j_parts(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> tuple[int, int, int]:
    """The 6j symbol {j1 j2 j3; j4 j5 j6} as `_parts`.

    The one product of `_stretched_six_j_parts` where j3 = j4 + j5, else
    the Racah sum.  Both give the same value; the product cancels the
    (k + 1)! and the factorials that the one-term Racah sum's parts carry
    on both sides, so its ints are about 30 % shorter, and the coupling-set
    compile takes about 30 % less time.
    """
    if j3 == j4 + j5:
        return _stretched_six_j_parts(j1, j2, j3, j4, j5, j6)
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    num = rad_den = 1
    for a, b, c in triads:
        if not _triangle_ok(a, b, c):
            return 0, 0, 1
        tn, td = _triangle(a, b, c)
        num, rad_den = num * tn, rad_den * td
    total, den = _racah_sum(
        (1,), tuple(map(sum, triads)), (j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4)
    )
    return _parts(1, total, den, num, rad_den)


def _stretched_six_j_parts(a: int, b: int, c: int, d: int, e: int, f: int) -> tuple[int, int, int]:
    """{a b c; d e f} with c = d + e as `_parts`, one product of factorials.

    The Racah sum has the one term k = a + b + c, since the triad sum
    a + b + c equals the pair sum a + b + d + e.  Its four triangle
    coefficients and that term, with (k + 1)! and one factorial each of
    (e + f - a)! and (d + f - b)! cancelled, leave (Edmonds, *Angular
    Momentum in Quantum Mechanics* (1957), ch. 6) the square
        (a-b+c)! (b+c-a)! (k+1)! (a+e-f)! (a-e+f)! (b+d-f)! (b-d+f)! (2d)! (2e)!
        / [(a+b-c)! (a+e+f+1)! (b+d+f+1)! (2c+1)! (e+f-a)! (d+f-b)!
           ((b+c-e-f)! (a+c-d-f)!)^2]
    with the sign (-1)^k.  A negative argument means a triad is open or
    the sum is empty, and the symbol is 0.
    """
    k = a + b + c
    ups = (a - b + c, b + c - a, k + 1, a + e - f, a - e + f, b + d - f, b - d + f, 2 * d, 2 * e)
    downs = (a + b - c, a + e + f + 1, b + d + f + 1, 2 * c + 1, e + f - a, d + f - b)
    twice = (b + c - e - f, a + c - d - f)
    if min(ups + downs + twice) < 0:
        return 0, 0, 1
    num = den = 1
    for u in ups:
        num *= _FACT[u]
    for w in downs:
        den *= _FACT[w]
    square = _FACT[twice[0]] * _FACT[twice[1]]
    return -1 if k % 2 else 1, num, den * square * square


def _six_j(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> WignerValue:
    return _value(_six_j_parts(j1, j2, j3, j4, j5, j6))


def wigner_6j(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> WignerValue:
    """Exact 6j symbol {j1 j2 j3; j4 j5 j6} by the Racah sum."""
    js = (j1, j2, j3, j4, j5, j6)
    for j in js:
        if not isinstance(j, int) or j < 0:
            raise ValueError(f"momenta must be non-negative integers, got {j!r}")
        if j > _J_MAX:
            raise ValueError(f"momentum {j} exceeds the supported maximum {_J_MAX}")
    return _six_j(*js)


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative fraction, or None if irrational."""
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def _orthogonality_defect(j1: int, j2: int, j3: int, m3: int, j3p: int, m3p: int) -> Fraction:
    """Exact sum_{m1,m2} (2 j3 + 1) 3j(j1 j2 j3; m1 m2 m3) 3j(j1 j2 j3p; m1 m2 m3p)
    minus its Kronecker target, as a rational multiple of a common surd.

    Terms with different projection sums vanish individually, so only
    m3 == m3p contributes.  Within one sum every product of two radicands
    falls in a single square class (the projection-dependent factorials
    enter squared), which keeps the accumulation exact.  Returns 0 iff the
    orthogonality relation holds exactly.
    """
    target = Fraction(1) if (j3 == j3p and m3 == m3p) else Fraction(0)
    if m3 != m3p:
        return -target  # every term vanishes
    acc = Fraction(0)
    base: Fraction | None = None
    for m1 in range(-j1, j1 + 1):
        m2 = -m3 - m1
        if abs(m2) > j2:
            continue
        w = _three_j(j1, j2, j3, m1, m2, m3)
        wp = _three_j(j1, j2, j3p, m1, m2, m3p)
        if w.sign == 0 or wp.sign == 0:
            continue
        rad = w.radicand * wp.radicand
        if base is None:
            base = rad
            ratio = Fraction(1)
        else:
            root = _sqrt_fraction(rad / base)
            if root is None:
                raise ArithmeticError("radicand products left their square class")
            ratio = root
        acc += (2 * j3 + 1) * w.sign * wp.sign * ratio
    if base is None:
        return -target
    # total = acc * sqrt(base); the target is rational, so compare exactly
    root = _sqrt_fraction(base)
    if root is not None:
        return acc * root - target
    if target == 0:
        return acc
    raise ArithmeticError("orthogonality sum is irrational but target is rational")
