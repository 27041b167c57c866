"""Scalar special functions backing the radial-integral evaluators.

Spherical Bessel functions j_l(x), Legendre polynomials P_l(x) on [-1, 1],
Legendre functions of the second kind Q_L(y) on the real interval (1, inf),
and the derivative combination

    R(L, M, y) = (-1)^M d^M Q_L / dy^M
               = (M!/2) * integral_{-1}^{1} P_L(x) / (y - x)^(M+1) dx,

a strictly positive quantity for y > 1 which is what the closed-form sums
consume (`paper_q_combination`).  No complex intermediates are formed
anywhere; the real combination above absorbs the branch ambiguity of
associated Legendre functions on (1, inf).

Stability choices:

- j_l: upward recurrence for x >= l; for x < l the upward direction loses
  the minimal solution, so the ratio j_l/j_{l-1} is obtained from a Lentz
  continued fraction and propagated downward, normalized against j_0 or
  j_1 (whichever trial value is larger, since they have no common zeros).
- Q_L: the forward three-term recurrence in L loses digits on (1, inf)
  because the polynomial-type solution dominates, but only a few near
  y = 1.  Q_0..Q_L come from the forward recurrence where the digits it
  loses fit the working precision's budget, and elsewhere from ratios
  Q_L/Q_{L-1} seeded by a continued fraction at the top order, recursed
  downward and normalized by Q_0(y) = atanh(1/y).
- d^M Q_L/dy^M: finite recurrence over the derivative order obtained by
  differentiating (y^2 - 1) Q_L' = L (y Q_L - Q_{L-1}) M times; no numeric
  differentiation.

The Q machinery (forward recurrence, continued fraction, downward ratios,
derivative recurrence) is written once and runs at two precisions.  In
floats y is a float or an array of points; an array gets the same
operations at each point, so batching changes no value.  The
extended-precision rescue (`paper_q_combination_all_dec`) runs the same
code on numpy object arrays of Decimals in a 40-digit context.

All functions are pure and keep no module state, so everything is safe
for concurrent use.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
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


def _order(name: str, v, maximum: Optional[int], minimum: int = 0) -> int:
    """v as an int, if it is an integer (numpy integers included) in [minimum, maximum]."""
    if not isinstance(v, (int, np.integer)) or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise ValueError(f"{name}={v} exceeds the supported maximum {maximum}")
    return int(v)


# ----------------------------------------------------------------------
# spherical Bessel j_l


def _jl_series(l: int, x: np.ndarray) -> np.ndarray:
    """Ascending series; accurate to machine precision for x < ~1."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    lead = np.ones_like(x)
    dfac = 1.0
    for i in range(1, l + 1):
        dfac *= 2 * i + 1
        lead = lead * x
    lead = lead / dfac
    term = np.ones_like(x)
    out = np.ones_like(x)
    for m in range(1, 40):
        term = term * (-x2 / 2.0) / (m * (2 * l + 2 * m + 1))
        out = out + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(out)):
            break
    return lead * out


def _jl_downward(l: int, x: np.ndarray) -> np.ndarray:
    """j_l for 0.5 <= x < l via continued-fraction ratio + downward recurrence."""
    n = x.size
    tiny = 1e-300
    f = np.full(n, tiny)
    c = f.copy()
    d = np.zeros(n)
    conv = np.zeros(n, dtype=bool)
    j = 0
    while not conv.all():
        if j > 20000:
            raise RuntimeError("continued fraction for j_l failed to converge")
        b = (2 * (l + j) + 1) / x
        a = 1.0 if j == 0 else -1.0
        d = b + a * d
        d[d == 0.0] = tiny
        c = b + a / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        conv = conv | (np.abs(delta - 1.0) < 1e-16)
        j += 1
    # f = j_l / j_{l-1}; run the recurrence down to orders 1 and 0.  Trial
    # values grow like j_0/j_l, at most ~1e96 for l <= 50 and x >= 0.5, so
    # no rescaling is needed.
    jp = np.ones(n)        # trial j at current order + 1
    jc = 1.0 / f           # trial j at current order, starting at l - 1
    trial1 = jc.copy() if l - 1 == 1 else None
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
    """Vectorized j_l over an array of non-negative arguments."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    zero = x == 0.0
    if zero.any():
        out[zero] = 1.0 if l == 0 else 0.0
    live = ~zero
    xs = x[live]
    small = xs < 0.5
    res = np.empty_like(xs)
    if small.any():
        res[small] = _jl_series(l, xs[small])
    big = ~small
    if big.any():
        xb = xs[big]
        if l == 0:
            res[big] = np.sin(xb) / xb
        elif l == 1:
            res[big] = np.sin(xb) / (xb * xb) - np.cos(xb) / xb
        else:
            r = np.empty_like(xb)
            up = xb >= l
            if up.any():
                xu = xb[up]
                jm = np.sin(xu) / xu
                jc = jm / xu - np.cos(xu) / xu
                for m in range(1, l):
                    jm, jc = jc, (2 * m + 1) / xu * jc - jm
                r[up] = jc
            dn = ~up
            if dn.any():
                r[dn] = _jl_downward(l, xb[dn])
            res[big] = r
    out[live] = res
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


def legendre_p_array(l: int, x: np.ndarray) -> np.ndarray:
    """Vectorized P_l on [-1, 1] via the stable upward recurrence."""
    x = np.asarray(x, dtype=float)
    if l == 0:
        return np.ones_like(x)
    pm = np.ones_like(x)
    pc = x.copy()
    for m in range(1, l):
        pm, pc = pc, ((2 * m + 1) * x * pc - m * pm) / (m + 1)
    return pc


def legendre_p(l: int, x: float) -> float:
    """Legendre polynomial P_l(x) for |x| <= 1."""
    l = _order("l", l, _L_MAX_P)
    x = float(x)
    if not (-1.0 <= x <= 1.0):
        raise ValueError(f"argument must lie in [-1, 1], got {x!r}")
    return float(legendre_p_array(l, np.array([x]))[0])


# ----------------------------------------------------------------------
# Legendre Q_L on (1, inf)
#
# Q_0..Q_lmax come from one seed rule at both precisions.  The forward
# recurrence Q_{l+1} = ((2l + 1) y Q_l - l Q_{l-1})/(l + 1) follows the
# dominant solution P_l, which grows like xi^l with xi = y + sqrt(y^2 - 1),
# while Q_l decays like xi^-l, so forward steps lose about
# (2 lmax + 1) log10(xi) digits of Q_lmax (Gautschi, SIAM Review 9 (1967)
# 24-82; DLMF 14.10).  Near y = 1 that is a few digits, where the continued
# fraction for Q_{lmax+1}/Q_lmax converges like xi^(-2j) and needs ~1e4
# terms at y - 1 = 1e-5.  Far from 1 the loss grows without bound and the
# continued fraction is cheap.  So the forward recurrence runs wherever the
# digits it loses fit the precision's budget, and the continued fraction
# plus downward ratios elsewhere.  A Decimal context pays the loss back
# with guard digits (`_forward_guard_digits`) and spends up to its own
# precision on them.  Floats have no guard digits, so their budget is the
# loss itself, chosen by measurement.  Against 50-digit values over
# lmax = 0, 2, .., 60 and y - 1 from 10^-6 to 10, the relative error of
# Q_0..Q_lmax is 3.6e-14 on average and 2.1e-12 at worst with a budget of
# 1 digit, 1.6e-13 and 1.4e-11 with half a digit, 1.7e-14 and 9.3e-13
# with 2.  But 2 digits put low orders far from 1, where the continued
# fraction is exact to rounding, on forward steps that lose up to 2
# digits, and cancelling coupling sums pass that on: on the benchmark's
# `sweep_far` and `oracle_check` rows it costs 0.003 and 0.014 correct
# digits per row against a budget of 1.
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


def _q_ratio_cf(top: int, y, tol=1e-16):
    """Continued fraction for Q_top(y)/Q_{top-1}(y) (minimal solution).

    y is a float, or a Decimal in the caller's context with a matching tol.
    The constants take y's type: mixed int and float arithmetic would slow
    the loop, which runs thousands of times near y = 1.
    """
    num = type(y)
    tiny, zero, one = num("1e-300"), num(0), num(1)
    f = tiny
    c = tiny
    d = zero
    j = 1
    while j < 200000:
        a = num(top) if j == 1 else -num((top + j - 1) ** 2)
        b = (2 * (top + j) - 1) * y
        d = b + a * d
        if d == zero:
            d = tiny
        c = b + a / c
        if c == zero:
            c = tiny
        d = one / d
        delta = c * d
        f *= delta
        if abs(delta - one) < tol:
            return f
        j += 1
    raise RuntimeError(f"Q ratio continued fraction stalled at y={y!r}")


def _pointwise(fn, y):
    """fn at a float y, or at each point of a float64 array y."""
    if np.ndim(y) == 0:
        return fn(y)
    return np.array([fn(v) for v in y.tolist()])


def legendre_q_all(lmax: int, y) -> np.ndarray:
    """Q_0(y) .. Q_lmax(y) along the first axis, y > 1.

    y is a float or a float64 array of points.  A point takes the forward
    recurrence from Q_0 = log1p(2/(y - 1))/2 where it loses at most
    `_FLOAT_FORWARD_DIGITS` digits, else the continued fraction.  An array takes
    the same operations point by point as a float (the seed choice, the
    continued fraction and Q_0 per point, the recurrences elementwise), so
    its values equal the float ones bit for bit.
    """
    if np.ndim(y) == 0:
        return _q_float(lmax, y, _forward_digits(lmax, y) <= _FLOAT_FORWARD_DIGITS)
    forward = np.array([_forward_digits(lmax, v) <= _FLOAT_FORWARD_DIGITS for v in y.tolist()],
                       dtype=bool)
    out = np.empty((lmax + 1,) + y.shape)
    for points, seed in ((forward, True), (~forward, False)):
        if points.any():
            out[:, points] = _q_float(lmax, y[points], seed)
    return out


def _q_float(lmax: int, y, forward: bool) -> np.ndarray:
    """Q_0..Q_lmax in floats by the forward recurrence or by the continued fraction."""
    out = np.empty((lmax + 1,) + np.shape(y))
    if forward:
        out[0] = _pointwise(lambda v: 0.5 * math.log1p(2.0 / (v - 1.0)), y)
        return _q_forward(out, y)
    out[0] = _pointwise(lambda v: math.atanh(1.0 / v), y)
    if lmax == 0:
        return out
    return _q_downward(out, _pointwise(lambda v: _q_ratio_cf(lmax + 1, v), y), y)


def _q_forward(out: np.ndarray, y) -> np.ndarray:
    """Fill out[1:] with Q_1..Q_lmax by the forward recurrence, given Q_0 in out[0].

    out is a float64 array (y a float or an array of points) or an object
    array of Decimals (y a Decimal, run in the caller's context).
    """
    if len(out) > 1:
        out[1] = y * out[0] - 1
    for l in range(1, len(out) - 1):
        out[l + 1] = ((2 * l + 1) * y * out[l] - l * out[l - 1]) / (l + 1)
    return out


def _q_downward(out: np.ndarray, r, y) -> np.ndarray:
    """Fill out[1:] with Q_1..Q_lmax, given Q_0 in out[0] and r = Q_{lmax+1}/Q_lmax.

    out is a float64 array (y a float or an array of points) or an object
    array of Decimals (y a Decimal, run in the caller's context).
    """
    for l in range(len(out) - 1, 0, -1):
        r = l / ((2 * l + 1) * y - (l + 1) * r)
        out[l] = r
    # out[l] holds Q_l/Q_{l-1}; the running product turns the ratios into Q_l
    with np.errstate(under="ignore"):
        np.multiply.accumulate(out, axis=0, out=out)
    return out


def legendre_q(L: int, y: float) -> float:
    """Legendre function of the second kind Q_L(y) on the real branch y > 1."""
    L = _order("L", L, _L_MAX_Q)
    y = float(y)
    if not (y > 1.0):
        raise ValueError(f"argument must satisfy y > 1, got {y!r}")
    return float(legendre_q_all(L, y)[L])


def paper_q_combination_all(lmax: int, M: int, y) -> np.ndarray:
    """R(l, M, y) = (-1)^M d^M Q_l/dy^M for l = 0..lmax along the first axis.

    y is a float or a float64 array of points, as for `legendre_q_all`.
    Each derivative order is a few array operations over l (and the
    points); they are the per-l products of the recurrence in the same
    order, so the values do not depend on the shape of y.
    """
    return _r_derivatives(legendre_q_all(lmax, y), M, y)


def _r_derivatives(q: np.ndarray, M: int, y) -> np.ndarray:
    """R(l, M, y) for l = 0..lmax from Q_0..Q_lmax in q, by the derivative recurrence.

    q is a float64 array (y a float or an array of points) or an object
    array of Decimals (y a Decimal, run in the caller's context).
    """
    if M == 0:
        return q
    ym1 = (y - 1) * (y + 1)  # y^2 - 1 without the cancellation of y * y - 1 near y = 1
    ls = np.arange(1, len(q)).astype(q.dtype).reshape((-1,) + (1,) * np.ndim(y))
    d_prev = q                                  # order m - 1
    d_curr = np.empty_like(q)                   # order m
    d_curr[0] = -1 / ym1
    d_curr[1:] = ls * (y * d_prev[1:] - d_prev[:-1]) / ym1
    for m in range(1, M):
        d_next = np.empty_like(q)
        d_next[0] = (-2 * m * y * d_curr[0] - m * (m - 1) * d_prev[0]) / ym1
        d_next[1:] = (
            ls * (y * d_curr[1:] + m * d_prev[1:] - d_curr[:-1])
            - 2 * m * y * d_curr[1:]
            - m * (m - 1) * d_prev[1:]
        ) / ym1
        d_prev, d_curr = d_curr, d_next
    return -d_curr if M % 2 else d_curr


def paper_q_combination(L: int, M: int, y: float) -> float:
    """The positive real combination (-1)^M d^M Q_L/dy^M.

    Equals (M!/2) * integral_{-1}^{1} P_L(x)/(y - x)^(M+1) dx; for M = 0 it
    reduces to Q_L(y).
    """
    L, M = _order("L", L, _L_MAX_Q), _order("M", M, _M_MAX_Q)
    y = float(y)
    if not (y > 1.0):
        raise ValueError(f"argument must satisfy y > 1, got {y!r}")
    return float(paper_q_combination_all(L, M, y)[L])


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


def paper_q_combination_all_dec(lmax: int, M: int, y: float, prec: int = 40) -> list[Decimal]:
    """R(l, M, y) for l = 0..lmax in `prec`-digit decimal arithmetic, y > 1.

    Q_l is seeded by the forward recurrence at prec + g digits when its
    guard g is at most prec, by the continued fraction otherwise.
    """
    if not y > 1.0:
        raise ValueError(f"argument must satisfy y > 1, got {y!r}")
    with localcontext() as ctx:
        ctx.prec = prec
        y_d = Decimal(y)
        guard = _forward_guard_digits(lmax, y)
        q = np.empty(lmax + 1, dtype=object)
        if guard <= prec:
            ctx.prec = prec + guard
            q[0] = _q0_dec(y_d)
            _q_forward(q, y_d)
            ctx.prec = prec
            q = np.array([+v for v in q.tolist()], dtype=object)
        else:
            q[0] = _q0_dec(y_d)
            if lmax >= 1:
                tol = Decimal(10) ** (4 - prec)
                _q_downward(q, _q_ratio_cf(lmax + 1, y_d, tol), y_d)
        return _r_derivatives(q, M, y_d).tolist()

