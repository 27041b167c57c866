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
l1+l2-l3) even, so no complex intermediate is ever formed.

The three-Bessel kernel product (same 3j weight, integrand
r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k3 r)) has an analogous finite sum against
Legendre polynomials of a wavenumber triangle parameter; it vanishes
outside the wavenumber triangle via the step factor beta.

`bare_integral` recovers the plain integral from the product by dividing
out the exact 3j symbol; when the parity-selected l3 violates the triangle
rule there is no closed form and `FormulaInapplicable` is raised; that is
a genuine coverage boundary, not a failure.  `bare_integral_batch` gives
the same values for many points of one order at once, and None exactly
where `bare_integral` raises.  Both check a point by the same arithmetic
(`y_param`, `condition_number`) and run one evaluator per route
(`_evaluate`), which takes one point or arrays of points; its double sum
and 40-digit rescue are `_products`.

The coupling coefficients depend on the orders only.  Each (l1, l2, l3)
set is compiled once per process (`_coupling_set`), in one pass over its
Wigner symbols, into float factors and the 40-digit Decimal factors of
the rescue, which runs the same term product on them.  R(l, M, y) comes
from `specfun`'s memo of derivative chains, which builds the Q table of
each (lmax, points, precision) once for all the orders at those points.

Everything here is a pure function apart from those caches, which hand
out no value a caller can change; parameter sweeps may call these
concurrently without restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import specfun
from .specfun import _order, _positive_finite
from .wigner import AngularMomenta3j, WignerValue, threej_000_nonzero, wigner_3j, wigner_6j

_LAMBDA_MAX = 20
_RESCUE_DIGITS = 40  # precision of the rescue for sums that cancel in floats


class Method(Enum):
    """Which evaluation route produced a value."""

    EQ_2_8 = "EQ_2_8"      # power l3+1 double sum
    EQ_2_9 = "EQ_2_9"      # equal-order special case, power 1
    EQ_2_11 = "EQ_2_11"    # power l3+2 double sum


class FormulaInapplicable(Exception):
    """No closed form exists: the parity-selected l3 violates the triangle rule."""


@dataclass(frozen=True)
class EvalResult:
    """A closed-form value with its route and singularity-proximity indicator."""

    value: float
    method: Method
    condition: float


def y_param(k1: float, k2: float, alpha: float) -> float:
    """y = (k1^2 + k2^2 + alpha^2) / (2 k1 k2); strictly > 1 for alpha > 0.

    Raises ValueError when the float arithmetic cannot hold that: the
    squares overflow (y is NaN), underflow (0/0), or y rounds to 1.
    """
    _positive_finite(k1=k1, k2=k2, alpha=alpha)
    num, den = k1 * k1 + k2 * k2 + alpha * alpha, 2.0 * k1 * k2
    y = num / den if den > 0.0 else math.nan
    if not (y > 1.0 and math.isfinite(y)):
        raise ValueError(
            f"y = (k1^2 + k2^2 + alpha^2) / (2 k1 k2) is {y!r} in float arithmetic, not a "
            f"finite number above 1 (k1={k1!r}, k2={k2!r}, alpha={alpha!r})"
        )
    return y


def condition_number(k1: float, k2: float, alpha: float) -> float:
    """Proximity to the k1 = k2, alpha -> 0 singularity: 1/(y - 1).

    Evaluated as 2 k1 k2 / ((k1 - k2)^2 + alpha^2), which is exact up to
    rounding; forming y first and subtracting 1 would lose digits.  Raises
    ValueError when the float arithmetic gives no finite value.
    """
    _positive_finite(k1=k1, k2=k2, alpha=alpha)
    # x * x, as in the batch: Python's x**2 calls libm pow, which can differ in the last bit
    den = (k1 - k2) * (k1 - k2) + alpha * alpha
    condition = 2.0 * k1 * k2 / den if den > 0.0 else math.inf
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
    _positive_finite(k1=k1, k2=k2, k3=k3)
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
    if not math.isfinite(delta):
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
    _positive_finite(alpha=alpha, k3=k3)
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


def _phase(l1: int, l2: int, l3: int) -> float:
    """Real evaluation of i^(l1+l2-l3); callers guarantee an even exponent."""
    return -1.0 if ((l1 + l2 - l3) // 2) % 2 else 1.0


@lru_cache(maxsize=None)
def _w3j(a: int, b: int, c: int) -> WignerValue:
    """The exact symbol (a b c; 0 0 0)."""
    return wigner_3j(AngularMomenta3j(a, b, c, 0, 0, 0))


@lru_cache(maxsize=None)
def _w3j000(a: int, b: int, c: int) -> float:
    return float(_w3j(a, b, c))


def _coupling_terms(l1: int, l2: int, l3: int):
    """Yield (script_l, l, sign, (num, den)) for every nonzero 3j*3j*6j product.

    The parity gate runs before any symbol is evaluated, so the cost is
    dominated by the nonzero terms.  sign * sqrt(num / den) is exact; num
    and den are the products of the three radicands' numerators and
    denominators, left unreduced.
    """
    for scr in range(l3 + 1):
        l_lo, l_hi = summation_bounds(l1, l2, l3, scr)
        for l in range(l_lo, l_hi + 1):
            if not threej_000_nonzero(l1, l3 - scr, l):
                continue
            if not threej_000_nonzero(l2, scr, l):
                continue
            w1 = _w3j(l1, l3 - scr, l)
            w2 = _w3j(l2, scr, l)
            w6 = wigner_6j(l1, l2, l3, scr, l3 - scr, l)
            sign = w1.sign * w2.sign * w6.sign
            if sign == 0:
                continue
            yield scr, l, sign, (
                w1.radicand_num * w2.radicand_num * w6.radicand_num,
                w1.radicand_den * w2.radicand_den * w6.radicand_den,
            )


class _CouplingSet(NamedTuple):
    """The nonzero terms of one (l1, l2, l3) coupling set, at both precisions.

    Term i of the paper's double sum is
        binom[i] * (k2/k1)^scr[i] * two_l1[i] * weight[i] * R(l[i], M, y),
    multiplied in that order, with binom = sqrt(C(2 l3, 2 scr)),
    two_l1 = 2 l + 1 and weight = sign * sqrt(radicand).  The sign is
    exact, so folding it into the weight leaves every product unchanged.
    `factors` holds these in floats; `exact` holds them for the 40-digit
    rescue, binom and weight as `_RESCUE_DIGITS`-digit Decimals (binom
    shared per l3) and two_l1 as an int.
    """

    index: np.ndarray     # (2, terms) ints: scr, l
    factors: np.ndarray   # (3, terms) floats: binom, two_l1, weight
    exact: np.ndarray     # (3, terms) objects: Decimal binom, int two_l1, Decimal weight
    l_need: int           # largest l of the set


@lru_cache(maxsize=None)
def _binom_dec(lambda3: int) -> tuple[Decimal, ...]:
    """sqrt(C(2 l3, 2 scr)) for scr = 0..l3 in `_RESCUE_DIGITS`-digit Decimals."""
    with localcontext() as ctx:
        ctx.prec = _RESCUE_DIGITS
        return tuple(Decimal(math.comb(2 * lambda3, 2 * scr)).sqrt() for scr in range(lambda3 + 1))


@lru_cache(maxsize=None)
def _coupling_set(l1: int, l2: int, l3: int) -> Optional[_CouplingSet]:
    """The coupling set of (l1, l2, l3), compiled once per process; None when empty.

    One pass over `_coupling_terms` gives both precisions, so each Wigner
    symbol of the set is evaluated once per process.  Int / int true
    division and Decimal division are correctly rounded, so a weight taken
    from the unreduced num / den equals the one of the reduced fraction.
    """
    terms = list(_coupling_terms(l1, l2, l3))
    if not terms:
        return None
    index = np.array([(scr, l) for scr, l, _, _ in terms]).T
    factors = np.array([
        (math.sqrt(math.comb(2 * l3, 2 * scr)), 2 * l + 1, sign * math.sqrt(num / den))
        for scr, l, sign, (num, den) in terms
    ]).T
    binom = _binom_dec(l3)
    with localcontext() as ctx:
        ctx.prec = _RESCUE_DIGITS
        exact = np.array([
            (binom[scr], 2 * l + 1, sign * (Decimal(num) / Decimal(den)).sqrt())
            for scr, l, sign, (num, den) in terms
        ], dtype=object).T
    return _CouplingSet(index, factors, exact, int(index[1].max()))


def _power(base, exponent: int):
    """base ** exponent, or inf where a float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _contributions(
    cs: _CouplingSet, lambda3: int, ratio, rvals: np.ndarray, exact: bool = False
) -> np.ndarray:
    """The terms of the double sum, shape (terms,) + shape of ratio.

    ratio = k2/k1 is a float or an array of points and rvals the matching
    R(l, M, y) of `specfun.paper_q_combination_all`; or, for the rescue
    (exact), ratio is a Decimal and rvals an object array of Decimals,
    run in the caller's context on the set's exact factors.  The powers
    of the ratio are taken with ** int, as a scalar evaluation would.
    """
    points = np.reshape(ratio, -1).tolist()
    powers = np.array([[_power(r, scr) for r in points] for scr in range(lambda3 + 1)])
    powers = powers.reshape((lambda3 + 1,) + np.shape(ratio))
    scr, l = cs.index
    factors = cs.exact if exact else cs.factors
    binom, two_l1, weight = factors.reshape(factors.shape + (1,) * np.ndim(ratio))
    return binom * powers[scr] * two_l1 * weight * rvals[l]


def _float_range_error(k1: float, k2: float, alpha: float) -> ValueError:
    return ValueError(
        f"the closed form's powers of k1 and k2 or its terms leave the float range "
        f"(k1={k1!r}, k2={k2!r}, alpha={alpha!r})"
    )


def _prefactor(
    lambda1: int, lambda2: int, lambda3: int, k1: float, k2: float, alpha: float, offset: int
) -> float:
    """The factor before the double sum; NaN when a power of k2 leaves the float range."""
    phase = _phase(lambda1, lambda2, lambda3)
    try:
        if offset == 1:
            return phase * math.sqrt(2 * lambda3 + 1) / (2.0 * k1 * k2 ** (lambda3 + 1))
        return phase * alpha * math.sqrt(2 * lambda3 + 1) / (2.0 * k1 * k1 * k2 ** (lambda3 + 2))
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _needs_rescue(peak: float, total: float) -> bool:
    # the sum cancels catastrophically as y -> 1 with high lambda3; it is
    # redone in 40-digit decimals when more than ~2 digits cancel
    return peak > 100.0 * abs(total)


def _products(
    cs: _CouplingSet, lambda1: int, lambda2: int, lambda3: int, offset: int, k1, k2, alpha, y
) -> list[float]:
    """The 3j-weighted product, prefactor times double sum, at each point.

    k1, k2, alpha and y are as for `_evaluate`, which runs this with float
    warnings off; R and the terms are computed for all points at once.  A
    point whose sum cancels takes the 40-digit rescue.  The value is NaN at
    a point where R, a power of k2/k1, a term or the prefactor is not finite.
    """
    m_order = lambda3 + offset - 1
    rvals = specfun.paper_q_combination_all(cs.l_need, m_order, y)
    terms = _contributions(cs, lambda3, k2 / k1, rvals)
    rvals, terms = (v.reshape(len(v), -1).T for v in (rvals, terms))  # one row per point
    finite = (np.isfinite(rvals).all(axis=1) & np.isfinite(terms).all(axis=1)).tolist()
    peaks = np.abs(terms).max(axis=1).tolist()
    points = zip(*(np.reshape(v, -1).tolist() for v in (k1, k2, alpha, y)))
    values = []
    for (a, b, c, yi), point_terms, ok, peak in zip(points, terms.tolist(), finite, peaks):
        pref = _prefactor(lambda1, lambda2, lambda3, a, b, c, offset)
        if not (ok and math.isfinite(pref)):
            values.append(math.nan)
            continue
        total = math.fsum(point_terms)
        if _needs_rescue(peak, total):
            total = _decimal_weighted_sum(cs, lambda3, m_order, a, b, yi)
        values.append(pref * total)
    return values


def _decimal_weighted_sum(
    cs: _CouplingSet, lambda3: int, m_order: int, k1: float, k2: float, y: float
) -> float:
    """The double sum of `_contributions` over the set's exact factors, in `_RESCUE_DIGITS` digits."""
    rd = specfun.paper_q_combination_all_dec(cs.l_need, m_order, y, prec=_RESCUE_DIGITS)
    with localcontext() as ctx:
        ctx.prec = _RESCUE_DIGITS
        ratio = Decimal(k2) / Decimal(k1)
        terms = _contributions(cs, lambda3, ratio, np.array(rd, dtype=object), exact=True)
        return float(sum(terms, Decimal(0)))


def _evaluate(
    route: tuple[int, int, int, int], k1, k2, alpha, y, weighted: bool = False
) -> tuple[Method, list[Optional[float]]]:
    """The closed form of route = (l1, l2, l3, offset) at each point, and its method.

    The bare integral of r^(l3 + offset) e^(-alpha r) j_l1(k1 r) j_l2(k2 r),
    or with `weighted` the 3j-weighted product of `two_bessel_product`:
    the double sum at every l3, and exact 0 where the parity kills the 3j
    weight.  k1, k2, alpha and y = `y_param(k1, k2, alpha)` are floats
    (one point) or float64 arrays of points that `y_param` and
    `condition_number` accept.  A value is None where it is not finite.
    """
    l1, l2, l3, offset = route
    with np.errstate(all="ignore"):  # R, a term or a value may leave the float range: None below
        if offset == 1 and l3 == 0 and not weighted:
            method = Method.EQ_2_9
            values = specfun.legendre_q_all(l1, y)[l1] / (2.0 * k1 * k2)
        else:
            method = Method.EQ_2_8 if offset == 1 else Method.EQ_2_11
            cs = None if (l1 + l2 + l3) % 2 else _coupling_set(l1, l2, l3)
            if cs is None:
                values = np.zeros(np.shape(y))
            else:
                values = np.array(_products(cs, l1, l2, l3, offset, k1, k2, alpha, y))
            if not weighted:
                values = values / _w3j000(l1, l2, l3)
    return method, [v if math.isfinite(v) else None for v in np.reshape(values, -1).tolist()]


def _point(route: tuple[int, int, int, int], k1: float, k2: float, alpha: float,
           weighted: bool = False) -> EvalResult:
    """`_evaluate` at one point that `y_param` and `condition_number` accept.

    Raises their errors, and `_float_range_error` where the value is None.
    """
    y = y_param(k1, k2, alpha)
    condition = condition_number(k1, k2, alpha)
    method, (value,) = _evaluate(route, k1, k2, alpha, y, weighted)
    if value is None:
        raise _float_range_error(k1, k2, alpha)
    return EvalResult(value, method, condition)


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
    return _point((lambda1, lambda2, lambda3, offset), k1, k2, alpha, weighted=True)


def two_bessel_equal_order(L: int, k1: float, k2: float, alpha: float) -> EvalResult:
    """Equal-order special case: integral r e^(-a r) j_L(k1 r) j_L(k2 r) dr = Q_L(y)/(2 k1 k2).

    This is `bare_integral(1, L, L, k1, k2, alpha)`.
    """
    L = _order("L", L, _LAMBDA_MAX)
    return bare_integral(1, L, L, k1, k2, alpha)


def _three_bessel_orders(lambda1, lambda2, lambda3, k1, k2, k3) -> tuple[int, int, int]:
    """The orders as ints, once each is at most `_LAMBDA_MAX` and each k positive and finite."""
    orders = tuple(
        _order(f"lambda{i}", v, _LAMBDA_MAX) for i, v in enumerate((lambda1, lambda2, lambda3), 1)
    )
    _positive_finite(k1=float(k1), k2=float(k2), k3=float(k3))
    return orders


def three_bessel_product(
    lambda1: int, lambda2: int, lambda3: int, k1: float, k2: float, k3: float
) -> float:
    """3j-weighted product of the triple-Bessel integral, in closed form.

    The integrand is r^2 j_l1(k1 r) j_l2(k2 r) j_l3(k3 r).  Zero whenever
    the wavenumbers violate their triangle (beta = 0) or the angular parity
    kills the 3j weight.  Raises ValueError when the powers of the
    wavenumbers or the terms leave the float range.
    """
    l1, l2, l3 = _three_bessel_orders(lambda1, lambda2, lambda3, k1, k2, k3)
    if (l1 + l2 + l3) % 2 == 1:
        return 0.0
    delta = delta_param(k1, k2, k3)
    beta = beta_step(delta)
    if beta == 0.0:
        return 0.0
    cs = _coupling_set(l1, l2, l3)
    total = 0.0
    try:
        if cs is not None:
            pvals = np.array([specfun.legendre_p(l, delta) for l in range(cs.l_need + 1)])
            with np.errstate(over="raise", invalid="raise"):
                total = math.fsum(_contributions(cs, l3, k2 / k1, pvals).tolist())
        pref = (
            math.pi * beta / (4.0 * k1 * k2 * k3)
            * _phase(l1, l2, l3)
            * math.sqrt(2 * l3 + 1)
            * (k1 / k3) ** l3
        )
        value = pref * total
    except (ArithmeticError, ValueError):
        # ** overflow, division by 0, numpy's FloatingPointError, or inf - inf in fsum
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

    The closed form follows `coupling_route`; the product is divided by
    the exact 3j symbol (l1 l2 l3; 0 0 0).
    """
    return _point(_route(n, lambda1, lambda2), k1, k2, alpha)


def bare_integral_batch(
    n: int,
    lambda1: int,
    lambda2: int,
    k1: Sequence[float],
    k2: Sequence[float],
    alpha: Sequence[float],
) -> tuple[Method, list[Optional[float]]]:
    """`bare_integral` at the points (k1[i], k2[i], alpha[i]) of one order.

    Returns the route's method and the values, equal bit for bit to
    `bare_integral(n, lambda1, lambda2, k1[i], k2[i], alpha[i]).value`,
    and None exactly where `bare_integral` raises: at a point that
    `y_param` or `condition_number` refuses, found by their float
    arithmetic over all points at once, or whose value leaves the float
    range.  The other points run through `_evaluate` together, so a sum
    that cancels takes the same 40-digit rescue.  Raises only the errors
    of the order, as `bare_integral` does before it looks at a point.
    """
    route = _route(n, lambda1, lambda2)
    k1, k2, alpha = (np.asarray(v, dtype=float) for v in (k1, k2, alpha))
    with np.errstate(all="ignore"):
        # operation for operation the floats of `y_param` and `condition_number`
        y = (k1 * k1 + k2 * k2 + alpha * alpha) / (2.0 * k1 * k2)
        condition = 2.0 * k1 * k2 / ((k1 - k2) * (k1 - k2) + alpha * alpha)
        clear = np.flatnonzero(
            (k1 > 0.0) & (k2 > 0.0) & (alpha > 0.0)
            & (y > 1.0) & np.isfinite(y) & np.isfinite(condition)
        )
    method, found = _evaluate(route, k1[clear], k2[clear], alpha[clear], y[clear])
    values: list[Optional[float]] = [None] * k1.size
    for i, value in zip(clear.tolist(), found):
        values[i] = value
    return method, values
