"""Exact Wigner 3j and 6j symbols over big-integer rational arithmetic.

Symbols with integer angular momenta always square to a rational number,
so values are carried exactly as sign * sqrt(num/den) and converted to
float only on demand.  The Racah single-sum formulas are evaluated with
exact integer factorials; the alternating sums cancel catastrophically in
floating point, and exactness is cheap at the sizes supported here
(j <= 60).  Half-integer momenta are out of scope: they would break the
sign * sqrt(rational) closure and the radial-integral sums never need
them.

Evaluation is total: non-triangular triads or projections that do not sum
to zero yield an exact zero value rather than an error.

All functions are pure.  The factorial table is built once at import and
never mutated; the 3j symbols are kept in a per-symbol cache, which is
internally locked, so concurrent use is safe.  The 6j symbols are not
cached: the closed form asks for each one once per process, when it
compiles the coupling set that needs it, and keeps the result there.
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
        if self.radicand < 0:
            raise ValueError("radicand must be non-negative")
        if (self.sign == 0) != (self.radicand == 0):
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

    @classmethod
    def from_signed_sqrt(cls, coeff: Fraction, radicand: Fraction) -> "WignerValue":
        """Value coeff * sqrt(radicand) folded into canonical form."""
        if coeff == 0 or radicand == 0:
            return cls.zero()
        sign = 1 if coeff > 0 else -1
        return cls(sign, coeff * coeff * radicand)


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


def _triangle_fraction(a: int, b: int, c: int) -> Fraction:
    """(a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!"""
    return Fraction(
        _FACT[a + b - c] * _FACT[a - b + c] * _FACT[-a + b + c],
        _FACT[a + b + c + 1],
    )


@lru_cache(maxsize=None)
def _three_j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> WignerValue:
    if m1 + m2 + m3 != 0 or not _triangle_ok(j1, j2, j3):
        return WignerValue.zero()
    kmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    kmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    if kmin > kmax:
        return WignerValue.zero()
    s = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            _FACT[k]
            * _FACT[j1 + j2 - j3 - k]
            * _FACT[j1 - m1 - k]
            * _FACT[j2 + m2 - k]
            * _FACT[j3 - j2 + m1 + k]
            * _FACT[j3 - j1 - m2 + k]
        )
        s += Fraction(-1 if k % 2 else 1, den)
    if s == 0:
        return WignerValue.zero()
    radicand = _triangle_fraction(j1, j2, j3) * (
        _FACT[j1 - m1] * _FACT[j1 + m1]
        * _FACT[j2 - m2] * _FACT[j2 + m2]
        * _FACT[j3 - m3] * _FACT[j3 + m3]
    )
    phase = -1 if (j1 - j2 - m3) % 2 else 1
    return WignerValue.from_signed_sqrt(phase * s, radicand)


def wigner_3j(a: AngularMomenta3j) -> WignerValue:
    """Exact 3j symbol by the Racah single-sum formula."""
    return _three_j(a.j1, a.j2, a.j3, a.m1, a.m2, a.m3)


def _six_j(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> WignerValue:
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(_triangle_ok(*t) for t in triads):
        return WignerValue.zero()
    a1 = j1 + j2 + j3
    a2 = j1 + j5 + j6
    a3 = j4 + j2 + j6
    a4 = j4 + j5 + j3
    b1 = j1 + j2 + j4 + j5
    b2 = j2 + j3 + j5 + j6
    b3 = j3 + j1 + j6 + j4
    s = Fraction(0)
    for k in range(max(a1, a2, a3, a4), min(b1, b2, b3) + 1):
        num = _FACT[k + 1]
        den = (
            _FACT[k - a1] * _FACT[k - a2] * _FACT[k - a3] * _FACT[k - a4]
            * _FACT[b1 - k] * _FACT[b2 - k] * _FACT[b3 - k]
        )
        s += Fraction(-num if k % 2 else num, den)
    if s == 0:
        return WignerValue.zero()
    radicand = Fraction(1)
    for t in triads:
        radicand *= _triangle_fraction(*t)
    return WignerValue.from_signed_sqrt(s, radicand)


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
