"""Closed-form evaluation of damped radial integrals over spherical Bessel
functions.

The central objects are the 3j-weighted products

    P1 = (l1 l2 l3; 0 0 0) * integral_0^inf r^(l3+1) e^(-a r) j_l1(k1 r) j_l2(k2 r) dr
    P2 = (l1 l2 l3; 0 0 0) * integral_0^inf r^(l3+2) e^(-a r) j_l1(k1 r) j_l2(k2 r) dr

which reduce to finite double sums of Wigner 3j/6j symbols against the
positive combination R(l, M, y) = (-1)^M d^M Q_l/dy^M of Legendre functions
of the second kind, evaluated at

    y = (k1^2 + k2^2 + a^2) / (2 k1 k2) > 1.

With the real combination R the phase prefactor i^(l1+l2-l3) collapses to
the sign (-1)^((l1+l2-l3)/2): nonzero terms force l1+l2+l3 (and hence
l1+l2-l3) even, so the double sum forms no complex intermediate.

Near k1 = k2 with small damping (y -> 1) that sum cancels.  There a second
closed form, from the Hankel expansion of j_l (DLMF 10.49), replaces the
40-digit rescue where it keeps its digits.  It writes j_l1 j_l2 as
(1/2) Re(h_l1 h_l2 + h_l1 conj(h_l2)), with
h_l(x) = e^(ix) sum_k i^(k-l-1) a_k(l) x^(-k-1), and integrates term by
term: int_0^inf r^m e^(-pr) dr = m!/p^(m+1) for m >= 0
(Gradshteyn-Ryzhik 3.381.4) and, for m < 0 with K = -m - 1, the finite
part (-1)^K p^K/K! (psi(K+1) - ln p) (DLMF 5.2, 5.4); the poles cancel
because the integrand is regular at r = 0.  It works in units of k1, so
p = alpha/k1 - i (k1 +- k2)/k1, a complex number per sign and point, whose
powers and logarithm are the only complex intermediates of the module.

The three-Bessel kernel product (same 3j weight, integrand
r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k3 r)) has an analogous finite sum against
Legendre polynomials of a wavenumber triangle parameter; it vanishes
outside the wavenumber triangle via the step factor beta.

`bare_integral` gives the plain integral (its coefficients divide out the
exact 3j symbol); when the parity-selected l3 violates the triangle
rule there is no closed form and `FormulaInapplicable` is raised; that is
a genuine coverage boundary, not a failure.  `bare_integral_batch` gives
each of many points of one order its outcome: the result `bare_integral`
returns there, or the ValueError it raises; `besselrad table` runs every
order through it, and `bare_integral` is a batch of one.  The batch checks
a point by one float arithmetic (`_y_and_condition`, that of `y_param` and
`condition_number`) and passes the points it accepts, as lists of floats,
to `_evaluate`, the one function that decides each point's route:
`EQ_2_9`, the double sum, its Hankel route or its 40-digit rescue.

The coupling coefficients depend on the orders only.  Each (l1, l2, l3)
set is compiled once per process (`_coupling_set`), in one pass over the
integer parts of its Wigner symbols, into one coefficient per term that
folds in every factor of the orders alone, rounded once to 40 digits for
the rescue and taken from those as a float; a point's own work is the
powers of k1, k2 and alpha, its R or P table and one product per term:
Python floats at one point (`_terms`), numpy over more points, and in the
rescue Horner's rule in k2/k1.  R(l, M, y) comes from `specfun`'s
memo of derivative chains, which builds each Q table once for all the
orders at its points, per bucket of lmax at both precisions.

Everything here is a pure function apart from those caches, which hand
out no value a caller can change; parameter sweeps may call these
concurrently without restriction.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import specfun
from .specfun import _float, _order, _positive_finite
from .wigner import AngularMomenta3j, WignerValue, _six_j_parts, wigner_3j
# the compile takes the 6j symbols as `_six_j_parts`; wigner_6j stays a name of this
# module, which perfbench/spans.py wraps beside wigner_3j
from .wigner import wigner_6j  # noqa: F401

_LAMBDA_MAX = 20
_RESCUE_DIGITS = 40  # precision of the rescue for sums that cancel in floats
_RESCUE_CONTEXT = Context(prec=_RESCUE_DIGITS)
# the Hankel route is tried below this y - 1 only: of the rows where the
# double sum cancels it kept its digits on 56-93 % per decade of y - 1 from
# 1e-5 to 1e-1, but on 3-20 % from 0.3 to 1.5, where it would mostly be a
# wasted call before the rescue
_HANKEL_MAX_Y_MINUS_1 = 0.1
_EULER_GAMMA = 0.57721566490153286061


class Method(Enum):
    """Which evaluation route produced a value."""

    EQ_2_8 = "EQ_2_8"      # power l3+1 double sum
    EQ_2_9 = "EQ_2_9"      # equal-order special case, power 1
    EQ_2_11 = "EQ_2_11"    # power l3+2 double sum
    HANKEL = "HANKEL"      # Hankel-expansion sum, where the double sum cancels near y = 1


class FormulaInapplicable(Exception):
    """No closed form exists: the parity-selected l3 violates the triangle rule."""


@dataclass(frozen=True)
class EvalResult:
    """A closed-form value with its route and singularity-proximity indicator."""

    value: float
    method: Method
    condition: float


# a closed-form batch's answer for one point: its result, or the error a one-point call raises there
Outcome = Union[EvalResult, ValueError]


def _raised(outcome):
    """A batch outcome's result, or its error raised; the batches of both engines give such outcomes."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _y_and_condition(k1: float, k2: float, alpha: float) -> tuple[float, float]:
    """y and 1/(y - 1) at one point, in float arithmetic.

    1/(y - 1) is 2 k1 k2 / ((k1 - k2)^2 + alpha^2), which is exact up to
    rounding; forming y first and subtracting 1 would lose digits.  y is
    NaN where 2 k1 k2 is 0, and 1/(y - 1) inf where its denominator is.
    """
    den, gap = 2.0 * k1 * k2, (k1 - k2) * (k1 - k2) + alpha * alpha
    y = (k1 * k1 + k2 * k2 + alpha * alpha) / den if den > 0.0 else math.nan
    return y, den / gap if gap > 0.0 else math.inf


def y_param(k1: float, k2: float, alpha: float) -> float:
    """y = (k1^2 + k2^2 + alpha^2) / (2 k1 k2); strictly > 1 for alpha > 0.

    Raises ValueError when the float arithmetic cannot hold that: the
    squares overflow (y is NaN), underflow (0/0), or y rounds to 1.
    """
    k1, k2, alpha = _positive_finite(k1=k1, k2=k2, alpha=alpha)
    y = _y_and_condition(k1, k2, alpha)[0]
    if not (y > 1.0 and math.isfinite(y)):
        raise ValueError(
            f"y = (k1^2 + k2^2 + alpha^2) / (2 k1 k2) is {y!r} in float arithmetic, not a "
            f"finite number above 1 (k1={k1!r}, k2={k2!r}, alpha={alpha!r})"
        )
    return y


def condition_number(k1: float, k2: float, alpha: float) -> float:
    """Proximity to the k1 = k2, alpha -> 0 singularity: 1/(y - 1).

    Raises ValueError when the float arithmetic gives no finite value.
    """
    k1, k2, alpha = _positive_finite(k1=k1, k2=k2, alpha=alpha)
    condition = _y_and_condition(k1, k2, alpha)[1]
    if not math.isfinite(condition):
        raise ValueError(
            f"1/(y - 1) = 2 k1 k2 / ((k1 - k2)^2 + alpha^2) is not finite in float "
            f"arithmetic (k1={k1!r}, k2={k2!r}, alpha={alpha!r})"
        )
    return condition


def delta_param(k1: float, k2: float, k3: float) -> float:
    """Triangle parameter (k1^2 + k2^2 - k3^2) / (2 k1 k2).

    Raises ValueError when the float arithmetic gives no finite value: the
    squares overflow (NaN) or 2 k1 k2 underflows to 0.
    """
    k1, k2, k3 = _positive_finite(k1=k1, k2=k2, k3=k3)
    den = 2.0 * k1 * k2
    delta = (k1 * k1 + k2 * k2 - k3 * k3) / den if den > 0.0 else math.nan
    if not math.isfinite(delta):
        raise ValueError(
            f"delta = (k1^2 + k2^2 - k3^2) / (2 k1 k2) is not finite in float arithmetic "
            f"(k1={k1!r}, k2={k2!r}, k3={k3!r})"
        )
    return delta


def beta_step(delta: float) -> float:
    """Wavenumber-triangle step: 1 inside |delta| < 1, 0 outside, 1/2 on the edge.

    The edge value 1/2 is fixed by the damped sine-product integral, whose
    regularized limit on the triangle boundary is half the interior value.
    """
    if not math.isfinite(_float("delta", delta)):
        raise ValueError(f"delta must be finite, got {delta!r}")
    ad = abs(delta)
    if ad < 1.0:
        return 1.0
    if ad > 1.0:
        return 0.0
    return 0.5


def laplace_single_bessel(lambda3: int, alpha: float, k3: float, offset: int) -> float:
    """Damped transform of a single spherical Bessel function, in closed form.

    offset 1:  integral r^(l3+1) e^(-a r) j_l3(k r) dr = (2k)^l3 l3! / (k^2+a^2)^(l3+1)
    offset 2:  integral r^(l3+2) e^(-a r) j_l3(k r) dr = 2a (2k)^l3 (l3+1)! / (k^2+a^2)^(l3+2)

    With s = hypot(k, a) both are (l3 + offset - 1)! (2k/s)^l3 (2a/s)^(offset-1)
    / s^(l3+offset+1), where 2k/s and 2a/s lie in (0, 2].  Each factor is split
    into a mantissa and a power of 2 (`math.frexp`), so only the result can
    leave the float range; a result that overflows or underflows to 0
    raises ValueError.
    """
    lambda3 = _order("lambda3", lambda3, maximum=50)
    alpha, k3 = _positive_finite(alpha=alpha, k3=k3)
    if offset not in (1, 2):
        raise ValueError(f"offset must be 1 or 2, got {offset!r}")
    n = lambda3 + offset + 1
    s = math.hypot(k3, alpha)
    damping = 2.0 * alpha / s if offset == 2 else 1.0
    (mk, ek), (ma, ea), (ms, es) = map(math.frexp, (2.0 * k3 / s, damping, s))
    mantissa = math.factorial(n - 2) * mk**lambda3 * ma / ms**n
    try:
        value = math.ldexp(mantissa, ek * lambda3 + ea - es * n)
    except OverflowError:
        value = math.inf
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(
            f"the single-Bessel transform leaves the float range "
            f"(lambda3={lambda3}, alpha={alpha!r}, k3={k3!r}, offset={offset})"
        )
    return value


def summation_bounds(lambda1: int, lambda2: int, lambda3: int, script_l: int) -> tuple[int, int]:
    """Range of the inner sum index forced by the 3j selection rules.

    Empty ranges (l_min > l_max) are legitimate and contribute nothing.
    """
    if not 0 <= script_l <= lambda3:
        raise ValueError(f"script_l must lie in [0, lambda3], got {script_l!r}")
    l_min = max(abs(lambda1 - (lambda3 - script_l)), abs(lambda2 - script_l))
    l_max = min(lambda1 + lambda3 - script_l, lambda2 + script_l)
    return l_min, l_max


@lru_cache(maxsize=None)
def _w3j(a: int, b: int, c: int) -> WignerValue:
    """The exact symbol (a b c; 0 0 0)."""
    return wigner_3j(AngularMomenta3j(a, b, c, 0, 0, 0))


@lru_cache(maxsize=None)
def _w3j000(a: int, b: int, c: int) -> float:
    return float(_w3j(a, b, c))


def _coupling_terms(l1: int, l2: int, l3: int):
    """Yield (script_l, l, sign, (num, den)) for every nonzero 3j*3j*6j product.

    l runs over the bounds of `summation_bounds`, which keep both 3j
    triads closed, in steps of 2 from the parity that makes both nonzero
    (one parity serves both, as l1 + l2 + l3 is even), so no symbol is
    evaluated that the parity kills.  sign * sqrt(num / den) is exact;
    num and den are the products of the three symbols' integer parts (the
    3j radicands reduced, from their cache, and the stretched 6j's one
    product of factorials, unreduced), so no term builds a fraction.
    """
    for scr in range(l3 + 1):
        l_lo, l_hi = summation_bounds(l1, l2, l3, scr)
        for l in range(l_lo + (l_lo + l2 + scr) % 2, l_hi + 1, 2):
            w1 = _w3j(l1, l3 - scr, l)
            w2 = _w3j(l2, scr, l)
            s6, n6, d6 = _six_j_parts(l1, l2, l3, scr, l3 - scr, l)
            sign = w1.sign * w2.sign * s6
            if sign == 0:
                continue
            yield scr, l, sign, (
                w1.radicand_num * w2.radicand_num * n6,
                w1.radicand_den * w2.radicand_den * d6,
            )


class _CouplingSet(NamedTuple):
    """The nonzero terms of one (l1, l2, l3) coupling set, one coefficient per term.

    Term i of the bare integral's double sum is
        coef[i] * (k2/k1)^scr[i] * R(l[i], M, y)
    in floats, multiplied in that order (`_terms` at one point, numpy over
    more points in `_double_sums`), and exact[i] times the
    same in the 40-digit rescue, which sums it by Horner's rule in k2/k1
    over scr (`_decimal_weighted_sum`).  The terms run in order of scr.
    exact[i] is
        phase * sqrt(2 l3 + 1) * sqrt(C(2 l3, 2 scr)) * (2 l + 1) * weight / (l1 l2 l3; 0 0 0),
    with phase = (-1)^((l1 + l2 - l3)/2) and weight the term's 3j*3j*6j
    product: a sign times the root of one exact rational, rounded once to
    `_RESCUE_DIGITS` digits (`_signed_root`).  coef[i] = float(exact[i]).
    Each column is stored once; all but exact are packed, and numpy reads
    them in place.
    """

    scr: bytes                  # one byte per term: scr and l are at most 2 `_LAMBDA_MAX`
    l: bytes
    coef: array                 # doubles
    exact: tuple[Decimal, ...]
    l_need: int                 # largest l of the set


@lru_cache(maxsize=None)
def _coupling_set(l1: int, l2: int, l3: int) -> Optional[_CouplingSet]:
    """The coupling set of (l1, l2, l3), compiled once per process; None when empty.

    One pass over `_coupling_terms` gives both precisions, so each Wigner
    symbol of the set is evaluated once per process.  Dividing by
    (l1 l2 l3; 0 0 0) = s3 sqrt(n3 / d3) multiplies the sign by s3 and the
    radicand by d3 / n3; the set is empty unless that symbol is nonzero.
    """
    terms = list(_coupling_terms(l1, l2, l3))
    if not terms:
        return None
    w3 = _w3j(l1, l2, l3)
    sign3 = -w3.sign if (l1 + l2 - l3) // 2 % 2 else w3.sign  # the 3j symbol's sign times the phase
    num3, den3 = (2 * l3 + 1) * w3.radicand_den, w3.radicand_num
    exact = tuple(
        _signed_root(sign3 * sign, num3 * math.comb(2 * l3, 2 * scr) * (2 * l + 1) ** 2 * num, den3 * den)
        for scr, l, sign, (num, den) in terms
    )
    scr, l = (bytes(column) for column in zip(*((scr, l) for scr, l, _, _ in terms)))
    return _CouplingSet(scr, l, array("d", map(float, exact)), exact, max(l))


def _signed_root(sign: int, num: int, den: int) -> Decimal:
    """sign * sqrt(num / den), correctly rounded to `_RESCUE_DIGITS` digits.

    r = isqrt(num * 100^shift // den) is floor(sqrt(num / den) * 10^shift),
    with shift chosen for about `_RESCUE_DIGITS` + 10 digits of r.  Where the
    root is inexact it lies strictly between r and r + 1, so 10 r + 1 (a
    sticky last digit) rounds to `_RESCUE_DIGITS` digits as the root does,
    never as a tie; where it is exact, 10 r is the root.  It is faster than
    a Decimal division and square root of these large ints.
    """
    shift = max(0, _RESCUE_DIGITS + 10 - (num.bit_length() - den.bit_length()) * 3 // 20)  # log10(2)/2 ~ 3/20
    scaled = num * 100**shift
    root = math.isqrt(scaled // den)
    sticky = root * root * den != scaled
    return _RESCUE_CONTEXT.create_decimal(sign * (10 * root + sticky)).scaleb(-shift - 1, _RESCUE_CONTEXT)


def _power(base, exponent: int):
    """base ** exponent, or inf where a float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _points(y: Sequence[float]):
    """The points y as `specfun` reads them: a float for one point, which it serves faster, else an array."""
    return y[0] if len(y) == 1 else np.array(y)


def _terms(cs: _CouplingSet, lambda3: int, ratio: float, table: list[float]) -> list[float]:
    """The float terms coef * ratio^scr * table[l] of the set at one point, multiplied in that order.

    table is R(., M, y) for the double sum or P(delta) for the three-Bessel
    product.  The powers of ratio = k2/k1 are taken with ** int, inf where
    they overflow; a term that leaves the float range is inf or NaN.
    """
    powers = [_power(ratio, s) for s in range(lambda3 + 1)]
    return [c * powers[s] * table[i] for c, s, i in zip(cs.coef, cs.scr, cs.l)]


def _float_range_error(k1: float, k2: float, alpha: float) -> ValueError:
    return ValueError(
        f"the closed form's powers of k1 and k2 or its terms leave the float range "
        f"(k1={k1!r}, k2={k2!r}, alpha={alpha!r})"
    )


def _prefactor(lambda3: int, k1: float, k2: float, alpha: float, offset: int) -> float:
    """The factor before the double sum; NaN when a power of k2 leaves the float range."""
    try:
        if offset == 1:
            return 1.0 / (2.0 * k1 * k2 ** (lambda3 + 1))
        return alpha / (2.0 * k1 * k1 * k2 ** (lambda3 + 2))
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _needs_rescue(peak: float, total: float) -> bool:
    # the sum cancels catastrophically as y -> 1 with high lambda3; it is
    # redone by the Hankel route or in 40-digit decimals when more than ~2
    # digits cancel
    return peak > 100.0 * abs(total)


class _HankelSet(NamedTuple):
    """The terms of the Hankel-expansion sum of one order (l1, l2, n).

    Term t, for a sign s of k1 +- k2 and indices i <= l1, j <= l2, is
    (1/2) i^q a_i(l1) a_j(l2) (k1/k2)^(j+1) F(m, p_s) in units of k1, with
    m = n - i - j - 2 and q = i - l1 - 1 +- (j - l2 - 1).  Its real part is
        coef[t] * (k1/k2)^(j[t] + 1) * [Re Z; Im Z][row[t]],
    where Z, per sign s and exponent e = -(m + 1) from e_low = 1 - n up,
    is p^e (e < 0) or p^e (psi(e + 1) - ln p) (e >= 0).  coef folds in
    1/2, the sign that i^q gives the chosen part, m! for m >= 0 and
    (-1)^K/K! for K = e >= 0, each product of exact rationals rounded
    once.  |term| is |coef| (k1/k2)^(j + 1) |Z[row % len(Z)]|.
    """

    coef: np.ndarray    # (terms,) floats
    j: np.ndarray       # (terms,) ints
    row: np.ndarray     # (terms,) ints into [Re Z; Im Z], Z of 2 signs x (e_high - e_low + 1) exponents
    e_low: int          # 1 - n
    e_high: int         # l1 + l2 + 1 - n
    psi: tuple[float, ...]  # psi(e + 1) = H_e - gamma for e = 0 .. e_high


@lru_cache(maxsize=None)
def _hankel_set(l1: int, l2: int, n: int) -> _HankelSet:
    """The Hankel set of the order (l1, l2, n), compiled once per process.

    With a_k(l + 1/2) = (l + k)!/(2^k k! (l - k)!) (DLMF 10.49.1), a
    coefficient's magnitude is (1/2) a_i(l1) a_j(l2) times (-e - 1)! for
    e < 0 or 1/e! for e >= 0, formed as one int numerator over one int
    denominator: int / int true division rounds it once, correctly, as
    float(Fraction) would.  psi(e + 1) = H_e - gamma, with H_e from the
    harmonic numbers as int pairs.
    """
    e_low, e_high = 1 - n, l1 + l2 + 1 - n
    width = e_high - e_low + 1
    f = math.factorial
    coef, js, row = [], [], []
    for s, sign in enumerate((1, -1)):
        for i in range(l1 + 1):
            for j in range(l2 + 1):
                q = (i - l1 - 1 + sign * (j - l2 - 1)) % 4
                e = i + j + 1 - n
                num = f(l1 + i) * f(l2 + j) * (f(-e - 1) if e < 0 else 1)
                den = 2 ** (i + j + 1) * f(i) * f(l1 - i) * f(j) * f(l2 - j) * (f(e) if e >= 0 else 1)
                # Re(i^q Z) is Re Z, -Im Z, -Re Z, Im Z for q = 0, 1, 2, 3, times (-1)^e for e >= 0
                negative = (q in (1, 2)) != (e > 0 and e % 2 == 1)
                coef.append((-num if negative else num) / den)
                js.append(j)
                row.append((q % 2) * 2 * width + s * width + e - e_low)
    psi, h_num, h_den = [], 0, 1
    for e in range(e_high + 1):
        psi.append(h_num / h_den - _EULER_GAMMA)
        h_num, h_den = h_num * (e + 1) + h_den, h_den * (e + 1)
    return _HankelSet(np.array(coef), np.array(js), np.array(row), e_low, e_high, tuple(psi))


def _hankel_table(hs: _HankelSet, k1: float, k2: float, alpha: float) -> list[complex]:
    """Z per sign and exponent of `_HankelSet`, at one point."""
    a = alpha / k1
    table = []
    # k1 - k2 is exact where the route runs (Sterbenz); 1 - k2/k1 would carry eps/(y - 1)
    for w in (1.0 + k2 / k1, (k1 - k2) / k1):
        p = complex(a, -w)
        log_p = cmath.log(p)
        z = (1.0 / p) ** -hs.e_low if hs.e_low < 0 else p**hs.e_low
        for e in range(hs.e_low, hs.e_high + 1):
            table.append(z if e < 0 else z * (hs.psi[e] - log_p))
            z *= p
    return table


def _hankel_values(
    lambda1: int, lambda2: int, n: int, k1: Sequence[float], k2: Sequence[float],
    alpha: Sequence[float],
) -> list[tuple[Optional[float], float]]:
    """The bare integral by the Hankel route at each point, and the digits its sum loses.

    The value is None where it is not trusted: where the sum's largest
    |term| (complex modulus) exceeds 100 |sum| (the trigger of the double
    sum's rescue) or the value is not finite.  The digits lost are
    log10(largest |term| / |sum|).  The terms are formed for all points at
    once and each point's real parts summed with fsum, so a point gets the
    same bits alone or in a batch.
    """
    hs = _hankel_set(lambda1, lambda2, n)
    z = np.array([_hankel_table(hs, a, b, c) for a, b, c in zip(k1, k2, alpha)]).T
    re, im = z.real, z.imag
    # (k1/k2)^(j + 1), one product at a time per point
    ratio = np.cumprod(np.broadcast_to(np.divide(k1, k2), (lambda2 + 1, len(k1))), axis=0)
    scaled = hs.coef[:, None] * ratio[hs.j]
    terms = scaled * np.concatenate((re, im))[hs.row]
    modulus = np.sqrt(re * re + im * im)
    peaks = (np.abs(scaled) * modulus[hs.row % len(z)]).max(axis=0).tolist()
    out: list[tuple[Optional[float], float]] = []
    for a, point_terms, peak in zip(k1, terms.T.tolist(), peaks):
        total = _fsum(point_terms)
        value = total * _power(a, -(n + 1))
        trusted = not _needs_rescue(peak, total) and math.isfinite(value)
        lost = math.log10(peak / abs(total)) if 0.0 < abs(total) < math.inf else math.inf
        out.append((value if trusted else None, lost))
    return out


def _fsum(terms: list[float]) -> float:
    """math.fsum of the terms, NaN where it overflows or meets inf - inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _double_sums(
    cs: _CouplingSet, lambda3: int, m_order: int, k1: Sequence[float], k2: Sequence[float], y: Sequence[float]
) -> list[tuple[float, float]]:
    """The double sum and its largest |term| at each point (k1[i], k2[i], y[i]), R for all points at once.

    At one point the terms are Python floats (`_terms`), for which numpy's
    per-call cost would exceed the arithmetic; more points form them with
    numpy over the points, the same products in the same order, so a point
    gets the same bits alone or in a batch.  The sum is NaN at a point
    where R, a power of k2/k1 or a term is not finite, and its peak is then
    not used.
    """
    rvals = specfun.paper_q_combination_all(cs.l_need, m_order, _points(y))
    ratios, rows = [b / a for a, b in zip(k1, k2)], rvals.reshape(len(rvals), -1)  # one column per point
    if len(ratios) == 1:
        r = rows[:, 0].tolist()
        terms = _terms(cs, lambda3, ratios[0], r)
        total = _fsum(terms)  # finite only where every term is
        finite = math.isfinite(total) and all(map(math.isfinite, r))
        return [(total if finite else math.nan, max(map(abs, terms)))]
    powers = np.array([[_power(ratio, s) for ratio in ratios] for s in range(lambda3 + 1)])
    scr, l = (np.frombuffer(column, np.uint8) for column in (cs.scr, cs.l))
    terms = (np.frombuffer(cs.coef)[:, None] * powers[scr] * rows[l]).T  # one row per point
    finite = (np.isfinite(rows).all(axis=0) & np.isfinite(terms).all(axis=1)).tolist()
    peaks = np.abs(terms).max(axis=1).tolist()
    return [(_fsum(t) if ok else math.nan, peak) for t, ok, peak in zip(terms.tolist(), finite, peaks)]


def _decimal_weighted_sum(
    cs: _CouplingSet, lambda3: int, m_order: int, k1: float, k2: float, y: float
) -> Decimal:
    """The double sum of `_double_sums` at one point, in `_RESCUE_DIGITS` digits.

    Term i is the set's exact[i] * (k2/k1)^scr[i] * R(l[i], M, y).  The sum
    is taken by Horner's rule in k2/k1: S_scr, the sum of exact * R over
    the terms of one scr, then ((S_l3 k2/k1 + S_(l3-1)) k2/k1 + ..) + S_0,
    which takes one product per term and one per scr.
    """
    with localcontext(_RESCUE_CONTEXT):
        rd = specfun.paper_q_combination_all_dec(cs.l_need, m_order, y, prec=_RESCUE_DIGITS)
        ratio = Decimal(k2) / Decimal(k1)
        level = [Decimal(0)] * (lambda3 + 1)
        for c, s, i in zip(cs.exact, cs.scr, cs.l):
            level[s] += c * rd[i]
        total = level[lambda3]
        for s in range(lambda3 - 1, -1, -1):
            total = total * ratio + level[s]
        return total


def _evaluate(
    route: tuple[int, int, int, int], k1: Sequence[float], k2: Sequence[float], alpha: Sequence[float],
    y: Sequence[float], conditions: Sequence[float], weighted: bool = False,
) -> list[Optional[EvalResult]]:
    """The closed form of route = (l1, l2, l3, offset) at each point (k1[i], k2[i], alpha[i]).

    The bare integral of r^(l3 + offset) e^(-alpha r) j_l1(k1 r) j_l2(k2 r),
    or with `weighted` the 3j-weighted product of `two_bessel_product`.
    Each point takes one route: `EQ_2_9`'s Q_L(y)/(2 k1 k2); else exact 0
    where the parity kills the 3j weight; else the prefactor times the
    double sum, NaN where either is not finite.  Where that sum cancels
    (`_needs_rescue`) the point takes the Hankel route, as one batch, if
    y - 1 is below `_HANKEL_MAX_Y_MINUS_1` and that route keeps its digits,
    and the 40-digit rescue otherwise.  The points are floats that `y_param`
    and `condition_number` accept, y[i] and conditions[i] their y and
    1/(y - 1).  A result is None where its value is not finite.
    """
    l1, l2, l3, offset = route
    equal_order = offset == 1 and l3 == 0 and not weighted
    method = Method.EQ_2_9 if equal_order else Method.EQ_2_8 if offset == 1 else Method.EQ_2_11
    methods = [method] * len(conditions)
    cs = None if equal_order or (l1 + l2 + l3) % 2 else _coupling_set(l1, l2, l3)
    with np.errstate(all="ignore"):  # R, a term or a value may leave the float range: None below
        if equal_order:
            q = np.ravel(specfun.legendre_q_all(l1, _points(y))[l1]).tolist()
            values = [v / (2.0 * a * b) for v, a, b in zip(q, k1, k2)]
        elif cs is None:
            values = [0.0] * len(conditions)
        else:
            m_order = l3 + offset - 1
            prefactors = [_prefactor(l3, a, b, c, offset) for a, b, c in zip(k1, k2, alpha)]
            values, rescues = [], []
            for i, (pref, (total, peak)) in enumerate(zip(prefactors, _double_sums(cs, l3, m_order, k1, k2, y))):
                finite = math.isfinite(total) and math.isfinite(pref)
                values.append(pref * total if finite else math.nan)
                if finite and _needs_rescue(peak, total):
                    rescues.append(i)
            near = [i for i in rescues if y[i] - 1.0 < _HANKEL_MAX_Y_MINUS_1]
            if near:
                columns = ([column[i] for i in near] for column in (k1, k2, alpha))
                for i, (value, _) in zip(near, _hankel_values(l1, l2, l3 + offset, *columns)):
                    if value is not None:
                        values[i], methods[i] = value, Method.HANKEL
            for i in rescues:
                if methods[i] is not Method.HANKEL:
                    values[i] = prefactors[i] * float(_decimal_weighted_sum(cs, l3, m_order, k1[i], k2[i], y[i]))
        if weighted:
            w3 = _w3j000(l1, l2, l3)
            values = [v * w3 for v in values]
    return [
        EvalResult(v, m, c) if math.isfinite(v) else None for v, m, c in zip(values, methods, conditions)
    ]


def _both_closed_forms(
    n: int, lambda1: int, lambda2: int, k1: float, k2: float, alpha: float
) -> tuple[Optional[float], Optional[float]]:
    """The bare integral at one point by the double sum and by the Hankel route.

    The double sum is taken in floats, or in `_RESCUE_DIGITS` digits where
    the float sum cancels, as `bare_integral` takes it without the Hankel
    route.  Each value is None where it is not finite or its sum loses too
    many digits against its largest |float term|: more than 2 in floats,
    more than `_RESCUE_DIGITS` - 14 = 26 in decimals, or, for the Hankel
    sum, more than 2 against its largest |term|.  Raises the errors of the
    order and of `y_param`.
    `besselrad check --suite hankel` compares the two.
    """
    l1, l2, l3, offset = _route(n, lambda1, lambda2)
    cs, m_order = _coupling_set(l1, l2, l3), l3 + offset - 1
    y = y_param(k1, k2, alpha)
    with np.errstate(all="ignore"):
        ((total, peak),) = _double_sums(cs, l3, m_order, [k1], [k2], [y])
        ((hankel, _),) = _hankel_values(l1, l2, n, [k1], [k2], [alpha])
    kept = not _needs_rescue(peak, total)
    if not kept:
        total = float(_decimal_weighted_sum(cs, l3, m_order, k1, k2, y))
        kept = peak <= abs(total) * 10.0 ** (_RESCUE_DIGITS - 14)
    double = _prefactor(l3, k1, k2, alpha, offset) * total
    return (double if kept and math.isfinite(double) else None), hankel


def two_bessel_product(
    lambda1: int,
    lambda2: int,
    lambda3: int,
    k1: float,
    k2: float,
    alpha: float,
    offset: int,
) -> EvalResult:
    """3j-weighted product for radial power lambda3 + offset, offset in {1, 2}.

    Returns exact 0 (without touching any Q function) whenever
    lambda1 + lambda2 + lambda3 is odd, since the 3j weight then vanishes.
    """
    lambda1 = _order("lambda1", lambda1, _LAMBDA_MAX)
    lambda2 = _order("lambda2", lambda2, _LAMBDA_MAX)
    lambda3 = _order("lambda3", lambda3, _LAMBDA_MAX)
    if offset not in (1, 2):
        raise ValueError(f"offset must be 1 or 2, got {offset!r}")
    return _raised(*_outcomes((lambda1, lambda2, lambda3, offset), (k1,), (k2,), (alpha,), weighted=True))


def two_bessel_equal_order(L: int, k1: float, k2: float, alpha: float) -> EvalResult:
    """Equal-order special case: integral r e^(-a r) j_L(k1 r) j_L(k2 r) dr = Q_L(y)/(2 k1 k2).

    This is `bare_integral(1, L, L, k1, k2, alpha)`.
    """
    L = _order("L", L, _LAMBDA_MAX)
    return bare_integral(1, L, L, k1, k2, alpha)


def _three_bessel_orders(lambda1, lambda2, lambda3, k1, k2, k3) -> tuple[tuple[int, int, int], list[float]]:
    """(l1, l2, l3) as ints at most `_LAMBDA_MAX` and (k1, k2, k3) as positive finite floats, or ValueError."""
    orders = tuple(
        _order(f"lambda{i}", v, _LAMBDA_MAX) for i, v in enumerate((lambda1, lambda2, lambda3), 1)
    )
    return orders, _positive_finite(k1=k1, k2=k2, k3=k3)


def three_bessel_product(
    lambda1: int, lambda2: int, lambda3: int, k1: float, k2: float, k3: float
) -> float:
    """3j-weighted product of the triple-Bessel integral, in closed form.

    The integrand is r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k3 r).  Zero whenever
    the wavenumbers violate their triangle (beta = 0) or the angular parity
    kills the 3j weight.  Raises ValueError when the powers of the
    wavenumbers or the terms leave the float range.
    """
    (l1, l2, l3), (k1, k2, k3) = _three_bessel_orders(lambda1, lambda2, lambda3, k1, k2, k3)
    if (l1 + l2 + l3) % 2 == 1:
        return 0.0
    delta = delta_param(k1, k2, k3)
    beta = beta_step(delta)
    if beta == 0.0:
        return 0.0
    cs = _coupling_set(l1, l2, l3)
    if cs is None:
        return 0.0
    # a power, P or term out of the float range makes the sum inf or NaN
    total = _fsum(_terms(cs, l3, k2 / k1, specfun.legendre_p_all(cs.l_need, delta).tolist()))
    try:
        value = math.pi * beta / (4.0 * k1 * k2 * k3) * (k1 / k3) ** l3 * total * _w3j000(l1, l2, l3)
    except ArithmeticError:  # ** overflow or division by 0
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"the three-Bessel closed form leaves the float range "
            f"(k1={k1!r}, k2={k2!r}, k3={k3!r})"
        )
    return value


def coupling_route(n: int, lambda1: int, lambda2: int) -> tuple[int, int]:
    """The coupling order l3 and offset (n = l3 + offset) of the closed form for r^n.

    Exactly one of l3 = n-1 (offset 1) or l3 = n-2 (offset 2, needs n >= 2)
    has even total parity with lambda1 + lambda2; the chosen l3 must also
    satisfy the triangle rule, otherwise the 3j weight vanishes, the
    product carries no information about the bare integral, and
    FormulaInapplicable is raised.
    """
    n = _order("n", n, maximum=None, minimum=1)
    lambda1 = _order("lambda1", lambda1, _LAMBDA_MAX)
    lambda2 = _order("lambda2", lambda2, _LAMBDA_MAX)
    if (lambda1 + lambda2 + n - 1) % 2 == 0:
        lambda3, offset = n - 1, 1
    elif n >= 2:
        lambda3, offset = n - 2, 2
    else:
        raise FormulaInapplicable(
            f"no closed form: n={n} admits no parity-compatible coupling order"
        )
    if not (abs(lambda1 - lambda2) <= lambda3 <= lambda1 + lambda2):
        raise FormulaInapplicable(
            f"no closed form: parity selects l3={lambda3}, which violates the "
            f"triangle rule for lambda1={lambda1}, lambda2={lambda2}"
        )
    return lambda3, offset


def _route(n: int, lambda1: int, lambda2: int) -> tuple[int, int, int, int]:
    """(lambda1, lambda2, l3, offset) of `coupling_route`, refusing l3 above `_LAMBDA_MAX`."""
    lambda3, offset = coupling_route(n, lambda1, lambda2)
    return int(lambda1), int(lambda2), _order("lambda3", lambda3, _LAMBDA_MAX), offset


def bare_integral(n: int, lambda1: int, lambda2: int, k1: float, k2: float, alpha: float) -> EvalResult:
    """integral_0^inf r^n e^(-alpha r) j_l1(k1 r) j_l2(k2 r) dr, n >= 1.

    The closed form follows `coupling_route`; its coupling coefficients
    hold the division by the exact 3j symbol (l1 l2 l3; 0 0 0).  This is
    `bare_integral_batch` at one point, with the point's error raised.
    """
    return _raised(*_outcomes(_route(n, lambda1, lambda2), (k1,), (k2,), (alpha,)))


def _refusal(k1: float, k2: float, alpha: float) -> ValueError:
    """The error of a point with no value: `y_param`'s, else `condition_number`'s, else `_float_range_error`."""
    try:
        y_param(k1, k2, alpha)
        condition_number(k1, k2, alpha)
    except ValueError as exc:
        return exc
    return _float_range_error(k1, k2, alpha)


def _outcomes(
    route: tuple[int, int, int, int], k1: Sequence[float], k2: Sequence[float], alpha: Sequence[float],
    weighted: bool = False,
) -> list[Outcome]:
    """`_evaluate` of a checked route at the points (k1[i], k2[i], alpha[i]), or each point's `_refusal`.

    The points that `y_param` and `condition_number` accept, found by their
    float arithmetic (`_y_and_condition`), run through `_evaluate`
    together; the raising checks run only at a point that gets no value.
    """
    points = []
    for point in zip(k1, k2, alpha, strict=True):
        try:
            point = tuple(map(float, point))
        except OverflowError:  # a number too large for a float: no value, and its `_refusal` names it
            points.append((*point, math.nan, math.nan))
        else:
            points.append((*point, *_y_and_condition(*point)))
    clear = [
        i for i, (a, b, c, y, condition) in enumerate(points)
        if a > 0.0 and b > 0.0 and c > 0.0 and y > 1.0 and math.isfinite(y) and math.isfinite(condition)
    ]
    found: dict[int, Optional[EvalResult]] = {}
    if clear:
        found = dict(zip(clear, _evaluate(route, *zip(*(points[i] for i in clear)), weighted)))
    return [found.get(i) or _refusal(a, b, c) for i, (a, b, c, _, _) in enumerate(points)]


def bare_integral_batch(
    n: int,
    lambda1: int,
    lambda2: int,
    k1: Sequence[float],
    k2: Sequence[float],
    alpha: Sequence[float],
) -> list[Outcome]:
    """`bare_integral` at the points (k1[i], k2[i], alpha[i]) of one order.

    Returns for each point exactly the EvalResult of
    `bare_integral(n, lambda1, lambda2, k1[i], k2[i], alpha[i])`, or the
    ValueError it raises: that of `y_param`, then of `condition_number`,
    then `_float_range_error` where the value leaves the float range.  The
    points with a value run through `_evaluate` together, so a sum that
    cancels takes the same Hankel route or 40-digit rescue.  Raises only
    the errors of the order, as `bare_integral` does before it looks at a
    point.
    """
    return _outcomes(_route(n, lambda1, lambda2), k1, k2, alpha)
