"""Scalar special functions backing the radial-integral evaluators.

Spherical Bessel functions j_l(x), Legendre polynomials P_l(x) on [-1, 1],
Legendre functions of the second kind Q_L(y) on the real interval (1, inf),
and the derivative combination

    R(L, M, y) = (-1)^M d^M Q_L / dy^M
               = (M!/2) * integral_{-1}^{1} P_L(x) / (y - x)^(M+1) dx,

a strictly positive quantity for y > 1 which is what the closed-form sums
consume (`paper_q_combination`).  No complex intermediates are formed
here; the real combination above absorbs the branch ambiguity of
associated Legendre functions on (1, inf).  The package's only complex
arithmetic is `closedform`'s Hankel route near y = 1, on its own powers
and logarithm of p = alpha/k1 - i (k1 +- k2)/k1, not on these functions.

Stability choices:

- j_l: the upward recurrence from sin x / x runs over a call's whole
  array and is kept for x >= l, where it is stable.  For x < l it loses
  the minimal solution, and those arguments are overwritten: below
  max(0.5, min(l, sqrt(4l + 6))) by the ascending series, summed by Horner
  with a term count fixed by l (no term exceeds the first there, so the
  sum does not cancel; this covers every x < l for l <= 5), and for
  l >= 6 on [sqrt(4l + 6), l) by the ratio j_l/j_{l-1} from the backward
  recurrence started at 0 thirty orders above l, propagated downward and
  normalized against j_0 or j_1 (whichever trial value is larger, since
  they have no common zeros).  No step depends on the other points of a
  call.
- Q_L: the forward three-term recurrence in L loses digits on (1, inf)
  because the polynomial-type solution dominates, but only a few near
  y = 1.  Q_0..Q_L come from the forward recurrence where the digits it
  loses fit the working precision's budget, and elsewhere from ratios
  Q_L/Q_{L-1}: the backward ratio recurrence started at 0 a fixed depth
  above the top order, set by y and the working precision, recursed
  downward and normalized by Q_0(y) = ln((y + 1)/(y - 1))/2.
- d^M Q_L/dy^M: finite recurrence over the derivative order obtained by
  differentiating (y^2 - 1) Q_L' = L (y Q_L - Q_{L-1}) M times; no numeric
  differentiation.

Both minimal solutions are thus found by Miller's algorithm in ratio form
(Gautschi, SIAM Review 9 (1967) 24-82) with a start depth worked out in
advance, so no loop waits on a convergence test.

The Q machinery (forward recurrence, backward ratios, derivative
recurrence) is written once and runs at two precisions.  In floats y is a
float or an array of points; an array gets the same operations at each
point, so batching changes no value.  The
extended-precision rescue (`paper_q_combination_all_dec`) runs the same
code on numpy object arrays of Decimals in a 40-digit context.

The derivative orders at y do not depend on the orders (l1, l2, n) a
caller sums them for, and the orders of a sweep ask for many of them at
the same points.  So every Q and R table (a float y, an array of points,
the rescue) is read from the only module state, a small memo of
derivative chains at the points of the last float chain seeded, keyed by
(top, points, precision): the Q seed of orders 0..top and the derivative
orders built so far, extended on demand and never handed out.  A float
chain's top is the lmax asked for; an extended-precision chain's is the
smallest 2^k - 1 at least lmax (0, 1, 3, 7, 15, 31 or 63), and a read
takes its first lmax + 1 rows, so the rescued rows of a sweep at one point
share one chain per bucket.  No value depends on how far a chain had been extended, or
on call history.  A lock guards the memo, and everything is safe for
concurrent use.
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from decimal import Context, Decimal, localcontext
from typing import Optional

import numpy as np

_L_MAX_BESSEL = 50
_L_MAX_P = 100
_L_MAX_Q = 60
_M_MAX_Q = 40


def _positive_finite(**values: float) -> None:
    """Raise ValueError naming the first value that is not positive and finite."""
    for name, v in values.items():
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def _reachable_tolerance(rel_tol: float) -> None:
    """Raise ValueError unless rel_tol is finite and at least 1e-12, the oracle's floor."""
    if not (rel_tol >= 1e-12 and math.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be finite and >= 1e-12, got {rel_tol!r}")


def _above_one(y) -> float:
    """y as a float, if it is finite and above 1: the domain of Q_L and R."""
    y = float(y)
    if not (y > 1.0 and math.isfinite(y)):
        raise ValueError(f"argument must be finite and satisfy y > 1, got {y!r}")
    return y


def _order(name: str, v, maximum: Optional[int], minimum: int = 0) -> int:
    """v as an int, if it is an integer (numpy integers included) in [minimum, maximum]."""
    if not isinstance(v, (int, np.integer)) or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise ValueError(f"{name}={v} exceeds the supported maximum {maximum}")
    return int(v)


# ----------------------------------------------------------------------
# spherical Bessel j_l
#
# Term m + 1 of the ascending series (DLMF 10.53.1) is term m times
# -x^2 / (2(m + 1)(2l + 2m + 3)), so on x^2 <= 4l + 6 no term is larger
# than the first.  The term count and the depth of the backward recurrence
# depend on l only, so a value does not depend on the other points of its
# call.


def _series_edge(l: int) -> float:
    """The ascending series serves x < max(0.5, min(l, sqrt(4l + 6)))."""
    return max(0.5, min(float(l), math.sqrt(4 * l + 6)))


def _jl_series_coefficients(l: int) -> tuple[tuple[float, ...], float]:
    """Horner coefficients in x^2 of the ascending series of j_l, highest first, and (2l + 1)!!.

    They stop before the first term below 1e-17 of the leading one at the
    top of the series range, where the sum stays above 0.3 of it.
    """
    x2_top = _series_edge(l) ** 2
    coef = [1.0]
    while True:
        m = len(coef)
        c = -coef[-1] / (2 * m * (2 * l + 2 * m + 1))
        if abs(c) * x2_top**m < 1e-17:
            return tuple(reversed(coef)), float(math.prod(range(1, 2 * l + 2, 2)))
        coef.append(c)


_JL_SERIES = tuple(_jl_series_coefficients(l) for l in range(_L_MAX_BESSEL + 1))


def _jl_series(l: int, x: np.ndarray) -> np.ndarray:
    """j_l at 0 <= x < `_series_edge(l)` from the ascending series, by Horner in x^2."""
    coef, dfac = _JL_SERIES[l]
    x2 = x * x
    s = np.full_like(x, coef[0])
    for c in coef[1:]:
        s *= x2
        s += c
    return x**l / dfac * s


def _jl_downward(l: int, x: np.ndarray) -> np.ndarray:
    """j_l for sqrt(4l + 6) <= x < l by the backward ratio recurrence, normalized by j_0 or j_1."""
    # f = j_m/j_{m-1} = x/((2m + 1) - x j_{m+1}/j_m), from f = 0 at m = l + 30.
    # For x < m the start error shrinks at least fourfold per order, so 30
    # orders leave it below 2^-60.
    f = np.zeros_like(x)
    for m in range(l + 29, l - 1, -1):
        f = x / ((2 * m + 1) - x * f)
    # f = j_l / j_{l-1}; run the recurrence down to orders 1 and 0 (l >= 6
    # passes order 1 on the way).  Trial values grow like j_0/j_l, at most
    # ~1e96 for l <= 50 and x >= 0.5, so no rescaling is needed.
    jp = np.ones_like(x)   # trial j at current order + 1
    jc = 1.0 / f           # trial j at current order, starting at l - 1
    for m in range(l - 1, 0, -1):
        jp, jc = jc, (2 * m + 1) / x * jc - jp
        if m - 1 == 1:
            trial1 = jc.copy()
    trial0 = jc
    j0 = np.sin(x) / x
    j1 = np.sin(x) / (x * x) - np.cos(x) / x
    # normalize against whichever trial is larger; j_0 and j_1 share no zeros
    use0 = np.abs(trial0) >= np.abs(trial1)
    scale = np.where(use0,
                     j0 / np.where(trial0 == 0.0, 1.0, trial0),
                     j1 / np.where(trial1 == 0.0, 1.0, trial1))
    return scale


def spherical_bessel_j_array(l: int, x: np.ndarray) -> np.ndarray:
    """Vectorized j_l, 0 <= l <= 50, over an array of non-negative arguments.

    Each value equals `spherical_bessel_j` at its argument bit for bit.
    """
    x = np.asarray(x, dtype=float)
    # the recurrence overflows or divides by zero at small x, which is
    # overwritten below
    with np.errstate(all="ignore"):
        out = np.sin(x) / x
        if l >= 1:
            jm, out = out, out / x - np.cos(x) / x
            for m in range(1, l):
                jm, out = out, (2 * m + 1) / x * out - jm
        edge = _series_edge(l)
        small = x < edge
        if small.any():
            out[small] = _jl_series(l, x[small])
        if edge < l:
            mid = (x >= edge) & (x < l)
            if mid.any():
                out[mid] = _jl_downward(l, x[mid])
    return out


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function of the first kind, j_l(x) for x >= 0."""
    l = _order("l", l, _L_MAX_BESSEL)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be finite and non-negative, got {x!r}")
    return float(spherical_bessel_j_array(l, np.array([x]))[0])


# ----------------------------------------------------------------------
# Legendre P_l


def legendre_p_all(lmax: int, x) -> np.ndarray:
    """P_0(x) .. P_lmax(x) along the first axis, x a float or an array in [-1, 1] (not checked).

    The stable upward recurrence, with the same operations at every point.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape)
    out[0], out[1:2] = 1.0, x  # no row 1 for lmax 0
    for m in range(1, lmax):
        out[m + 1] = ((2 * m + 1) * x * out[m] - m * out[m - 1]) / (m + 1)
    return out


def legendre_p(l: int, x: float) -> float:
    """Legendre polynomial P_l(x) for |x| <= 1: row l of `legendre_p_all`."""
    l = _order("l", l, _L_MAX_P)
    x = float(x)
    if not (-1.0 <= x <= 1.0):
        raise ValueError(f"argument must lie in [-1, 1], got {x!r}")
    return float(legendre_p_all(l, x)[l])


# ----------------------------------------------------------------------
# Legendre Q_L on (1, inf)
#
# Q_0..Q_lmax come from one seed rule at both precisions.  The forward
# recurrence Q_{l+1} = ((2l + 1) y Q_l - l Q_{l-1})/(l + 1) follows the
# dominant solution P_l, which grows like xi^l with xi = y + sqrt(y^2 - 1),
# while Q_l decays like xi^-l, so forward steps lose about
# (2 lmax + 1) log10(xi) digits of Q_lmax (Gautschi, SIAM Review 9 (1967)
# 24-82; DLMF 14.10).  Near y = 1 that is a few digits, where the backward
# ratio recurrence for Q_{lmax+1}/Q_lmax, whose start error shrinks like
# xi^-2 per order, would start 4e3 orders up at y - 1 = 1e-5 in floats.
# Far from 1 the loss grows without bound and a few backward orders
# suffice.  So the forward recurrence runs wherever the digits it loses fit
# the precision's budget, and the backward ratios elsewhere.  A Decimal
# context pays the loss back with guard digits (`_forward_guard_digits`)
# and spends up to its own precision on them.  Floats have no guard
# digits, so their budget is the loss itself, chosen by measurement.
# Against 50-digit values over lmax = 0, 2, .., 60 and 36 values of y - 1
# from 10^-6 to 10, the relative error of Q_0..Q_lmax is 2.4e-15 on average
# and 9.8e-14 at worst (the forward side at the budget's edge) with a
# budget of 1 digit, 2.2e-15 and 5.6e-14 with half a digit, 2.9e-15 and
# 1.4e-13 with 2.  Half a digit doubles the deepest backward start (to
# 16 (2 lmax + 1) orders) for little.  2 digits put low orders far from 1,
# where the backward seed is exact to rounding, on forward steps that lose
# up to 2 digits, and cancelling coupling sums pass that on: on the
# benchmark's `sweep_far` and `oracle_check` rows it cost 0.003 and 0.014
# correct digits per row against a budget of 1.
_FLOAT_FORWARD_DIGITS = 1.0


def _forward_digits(lmax: int, y: float) -> float:
    """(2 lmax + 1) log10(xi): the digits forward steps lose from Q_0, Q_1 to Q_lmax at y."""
    return (2 * lmax + 1) * math.acosh(y) / math.log(10)


def _forward_guard_digits(lmax: int, y: float) -> int:
    """Guard digits that give back what the forward recurrence loses, rounded up.

    `_forward_digits` plus the digits of Q_0 itself and the rounding of
    lmax steps.  Float estimates: acosh(y) = ln xi, and Q_0 by log1p, which
    stays finite and nonzero for every y the float path accepts.
    """
    q0 = 0.5 * math.log1p(2.0 / (y - 1.0))
    return math.ceil(
        _forward_digits(lmax, y)
        + math.log10(max(1.0, q0))
        + math.log10(lmax + 2)
        + 3
    )


def _q_ratio(top: int, y, digits: int):
    """Q_top(y)/Q_{top-1}(y) to `digits` digits by the backward ratio recurrence.

    r = 0 at order top + d, then r_l = l/((2l + 1) y - (l + 1) r_{l+1})
    down to l = top.  The start error shrinks like xi^-2 per order, so
    d = ceil(digits ln 10/(2 acosh y)) + 2.  y is a float, or a Decimal run
    in the caller's context.
    """
    d = math.ceil(digits * math.log(10) / (2 * math.acosh(y))) + 2
    r = 0
    for l in range(top + d - 1, top - 1, -1):
        r = l / ((2 * l + 1) * y - (l + 1) * r)
    return r


def legendre_q_all(lmax: int, y) -> np.ndarray:
    """Q_0(y) .. Q_lmax(y) along the first axis, y > 1.

    y is a float or a float64 array of points.  The values are the seed
    (`_q_seed`) of y's chain in the memo (`_chain_values`), as a new array;
    every point takes the same operations, so a value does not depend on
    the shape of y or on the other points.
    """
    return _chain_values(lmax, 0, y, 0)


def _q_forward(out: np.ndarray, y) -> np.ndarray:
    """Fill out[1:] with Q_1..Q_lmax by the forward recurrence, given Q_0 in out[0].

    out is a float64 array (y an array of points) or an object array of
    Decimals (y a Decimal, run in the caller's context).
    """
    if len(out) > 1:
        out[1] = y * out[0] - 1
    for l in range(1, len(out) - 1):
        out[l + 1] = ((2 * l + 1) * y * out[l] - l * out[l - 1]) / (l + 1)
    return out


def _q_downward(out: np.ndarray, r, y) -> np.ndarray:
    """Fill out[1:] with Q_1..Q_lmax, given Q_0 in out[0] and r = Q_{lmax+1}/Q_lmax.

    out is a float64 array (y and r arrays of points) or an object array
    of Decimals (y and r Decimals, run in the caller's context).
    """
    # (2l + 1) y overflows only where Q_l underflows: the ratio 0 is right
    with np.errstate(over="ignore", under="ignore"):
        for l in range(len(out) - 1, 0, -1):
            r = l / ((2 * l + 1) * y - (l + 1) * r)
            out[l] = r
        # out[l] holds Q_l/Q_{l-1}; the running product turns the ratios into Q_l
        np.multiply.accumulate(out, axis=0, out=out)
    return out


def legendre_q(L: int, y: float) -> float:
    """Legendre function of the second kind Q_L(y) on the real branch y > 1."""
    L = _order("L", L, _L_MAX_Q)
    return float(legendre_q_all(L, _above_one(y))[L])


def paper_q_combination_all(lmax: int, M: int, y) -> np.ndarray:
    """R(l, M, y) = (-1)^M d^M Q_l/dy^M for l = 0..lmax along the first axis.

    y is a float or a float64 array of points, as for `legendre_q_all`.
    Each derivative order is a few array operations over l (and the
    points); they are the per-l products of the recurrence in the same
    order, so the values do not depend on the shape of y.  They are read
    from y's chain in the memo (`_chain_values`), as a new array.
    """
    return _chain_values(lmax, M, y, 0)


def _r_step(d_prev: Optional[np.ndarray], d_curr: np.ndarray, m: int, y, ym1, ls) -> np.ndarray:
    """d^(m+1) Q_l/dy^(m+1) for l = 0..lmax from orders m - 1 (d_prev) and m (d_curr).

    Differentiates (y^2 - 1) Q_l' = l (y Q_l - Q_{l-1}) and (y^2 - 1) Q_0' = -1
    m times; order 1 needs Q only.  ym1 = (y - 1)(y + 1) and ls = 1..lmax,
    shaped against y, are the chain's constants.  The arrays are float64 (y a
    float or an array of points) or Decimals (y a Decimal, run in the
    caller's context).
    """
    d_next = np.empty_like(d_curr)
    if m == 0:
        d_next[0] = -1 / ym1
        d_next[1:] = ls * (y * d_curr[1:] - d_curr[:-1]) / ym1
        return d_next
    d_next[0] = (-2 * m * y * d_curr[0] - m * (m - 1) * d_prev[0]) / ym1
    d_next[1:] = (
        ls * (y * d_curr[1:] + m * d_prev[1:] - d_curr[:-1])
        - 2 * m * y * d_curr[1:]
        - m * (m - 1) * d_prev[1:]
    ) / ym1
    return d_next


class _DerivativeChain:
    """d^m Q_l/dy^m for l = 0..lmax and m = 0, 1, .. at y, extended on demand.

    `orders[m]` holds order m and `orders[0]` the Q seed.  The arrays are
    float64 (y a float or an array of points) or Decimals (y a Decimal), and
    every step and the final sign run in the caller's context, which for
    Decimals `_chain_values` sets.  Order m is the same whichever order was
    asked for first.
    """

    def __init__(self, q: np.ndarray, y):
        self.y, self.orders = y, [q]
        with np.errstate(over="ignore"):  # past y = 1e154, where R underflows for M >= 1
            self.ym1 = (y - 1) * (y + 1)  # y^2 - 1 without the cancellation of y * y - 1 near y = 1
        self.ls = np.arange(1, len(q)).astype(q.dtype).reshape((-1,) + (1,) * (q.ndim - 1))

    def signed(self, M: int, rows: int) -> np.ndarray:
        """R(l, M, y) = (-1)^M d^M Q_l/dy^M for l = 0..rows - 1, as a new array."""
        orders = self.orders
        for m in range(len(orders) - 1, M):
            orders.append(_r_step(orders[m - 1] if m else None, orders[m], m, self.y, self.ym1, self.ls))
        return -orders[M][:rows] if M % 2 else orders[M][:rows].copy()


def paper_q_combination(L: int, M: int, y: float) -> float:
    """The positive real combination (-1)^M d^M Q_L/dy^M.

    Equals (M!/2) * integral_{-1}^{1} P_L(x)/(y - x)^(M+1) dx; for M = 0 it
    reduces to Q_L(y).
    """
    L, M = _order("L", L, _L_MAX_Q), _order("M", M, _M_MAX_Q)
    return float(paper_q_combination_all(L, M, _above_one(y))[L])


# ----------------------------------------------------------------------
# the Q machinery in extended precision
#
# The Wigner-weighted double sums cancel catastrophically as y -> 1 with a
# high derivative order: individual terms can exceed the result by many
# orders of magnitude.  When a caller detects that, it re-evaluates the
# combination values (and the sum) in 40-digit decimal arithmetic, through
# the same seed rule and recurrences as the float path.


def _q0_dec(y: Decimal) -> Decimal:
    """Q_0(y) = ln((y + 1)/(y - 1))/2 to the context's precision.

    The quotient is 1 + 2/(y - 1); its logarithm keeps the digits of the
    quotient past the leading 1 only, so log10(y) extra digits go to it.
    """
    with localcontext() as ctx:
        ctx.prec += max(0, y.adjusted()) + 2
        q0 = ((y + 1) / (y - 1)).ln() / 2
    return +q0


def _q_seed(lmax: int, y, prec: int) -> np.ndarray:
    """Q_0..Q_lmax at y: floats for prec 0 (y a float or a float64 array), else prec-digit Decimals.

    A float point takes the forward recurrence from Q_0 = log1p(2/(y - 1))/2
    where it loses at most `_FLOAT_FORWARD_DIGITS` digits, else the backward
    ratios.  With Decimals (y a float), Q_l is seeded by the forward
    recurrence at prec + g digits when its guard g is at most prec, else by
    the backward ratios, whose top ratio is carried to prec - 4 digits.
    """
    if not prec:
        points = np.reshape(y, -1)
        q = np.empty((lmax + 1, points.size))
        q[0] = [0.5 * math.log1p(2.0 / (v - 1.0)) for v in points.tolist()]
        back = np.array([lmax > 0 and _forward_digits(lmax, v) > _FLOAT_FORWARD_DIGITS
                         for v in points.tolist()], dtype=bool)
        if not back.all():
            q[:, ~back] = _q_forward(q[:, ~back], points[~back])
        if back.any():
            ratios = np.array([_q_ratio(lmax + 1, v, 16) for v in points[back].tolist()])
            q[:, back] = _q_downward(q[:, back], ratios, points[back])
        return q.reshape((lmax + 1,) + np.shape(y))
    y_d = Decimal(y)
    guard = _forward_guard_digits(lmax, y)
    q = np.empty(lmax + 1, dtype=object)
    if guard <= prec:
        with localcontext() as ctx:
            ctx.prec = prec + guard
            q[0] = _q0_dec(y_d)
            _q_forward(q, y_d)
        return np.array([+v for v in q.tolist()], dtype=object)
    q[0] = _q0_dec(y_d)
    if lmax >= 1:
        _q_downward(q, _q_ratio(lmax + 1, y_d, prec - 4), y_d)
    return q


def paper_q_combination_all_dec(lmax: int, M: int, y: float, prec: int = 40) -> list[Decimal]:
    """R(l, M, y) for l = 0..lmax in `prec`-digit decimal arithmetic, y > 1.

    The values are the first lmax + 1 rows of the chain of y's bucket
    (`_chain_top`) in the memo (`_chain_values`), seeded by `_q_seed` at
    the bucket's top, as a new list.  They depend on y, the bucket and
    prec only, not on the caller's decimal context or what was read before.
    """
    lmax, M = _order("lmax", lmax, _L_MAX_Q), _order("M", M, _M_MAX_Q)
    prec = _order("prec", prec, None, minimum=1)
    return _chain_values(lmax, M, _above_one(y), prec).tolist()


# ----------------------------------------------------------------------
# the memo of derivative chains
#
# Every order of a `table` sweep asks for R(., M, y) at the same points for
# many (lmax, M): a batch's float tables at its array of points, then the
# 40-digit rescue at some of those points, one at a time.  A key holds the
# chain's top order, the points' shape and float64 bytes, and the
# precision, so a float y and an array are held alike.  Each key's chain
# is seeded once, at its top, and extended to the highest M asked for.
# The seed rule, the guard digits and the top ratio depend on the top, so
# row l of a chain depends on its top as well as on l.  A float chain's
# top is the lmax asked for: its seed is cheap, and a higher top would
# seed and extend rows that no read needs.  An extended chain's
# top is its bucket's (`_chain_top`), so one 40-digit seed at a point
# serves every lmax of its bucket (4 to 7, 8 to 15, ...), and a row's
# value is the same whichever lmax of the bucket was asked for first; a
# bucket at most doubles lmax, so a small lmax read at a fresh point seeds
# few rows it does not read.  The memo keeps the
# chains at the points of the last float chain it seeded (`_HELD`), at
# both precisions: a new 40-digit chain at one of those points drops
# nothing, and a new chain at other points drops every chain at a point
# outside them.  So every order of a sweep, and every row of an
# `order_scan` command at its one point, finds the chains of the orders
# before it.  One lock guards the memo and every extension.

_CHAINS: dict = {}
_HELD: frozenset = frozenset()  # every chain's points lie in it
_CHAINS_LOCK = threading.Lock()


def _chain_top(lmax: int, prec: int) -> int:
    """The top order of the chain that serves lmax.

    lmax itself in floats (prec 0), else the smallest 2^k - 1 at least
    lmax: 0, 1, 3, 7, 15, 31 or 63.
    """
    return (1 << lmax.bit_length()) - 1 if prec else lmax


def _chain_values(lmax: int, M: int, y, prec: int) -> np.ndarray:
    """R(l, M, y), l = 0..lmax, y a float (or for prec 0 an array), from the memo; a new array."""
    global _HELD
    copy = np.array(y, dtype=float)  # the caller cannot change a chain's points
    points = (copy.shape, copy.tobytes())
    y = copy if copy.ndim else float(copy)
    top = _chain_top(lmax, prec)
    key = (top, points, prec)
    # a fresh context: a chain's values must not depend on its first caller's
    with _CHAINS_LOCK, localcontext(Context(prec=prec)) if prec else nullcontext():
        chain = _CHAINS.get(key)
        if chain is None:
            values = frozenset(copy.ravel().tolist())
            if values != _HELD and not (prec and values <= _HELD):
                _HELD = values
                for other in [k for k in _CHAINS if not values.issuperset(np.frombuffer(k[1][1]).tolist())]:
                    del _CHAINS[other]
            chain = _CHAINS[key] = _DerivativeChain(_q_seed(top, y, prec), Decimal(y) if prec else y)
        return chain.signed(M, lmax + 1)
