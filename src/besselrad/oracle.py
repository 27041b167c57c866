"""Independent numerical verification of every closed form in the package.

Adaptive panel quadrature with the nested Gauss–Kronrod (7, 15) rule of
QUADPACK's `qk15`: the integrand is evaluated once on a panel's 15 Kronrod
nodes, the 15-point Kronrod sum is the panel's value, and its distance from
the 7-point Gauss sum on the odd-indexed nodes is the panel's error
estimate.  Panels are never wider than half the shortest oscillation period
of the integrand, so the embedded estimate stays honest on the oscillatory
spherical-Bessel products.  Truncation of the semi-infinite radial range
is controlled by an analytic tail bound: beyond the turning points every
j_l(kr) envelope is below 1.16/(kr), so the neglected tail is bounded by
an exponential-polynomial integral with a closed form.  The radial
integrals keep one set of panels per integral: a coarse pass to 1e-4 sets
the scale of the tail bound, panels are appended only where the truncation
radius moves outward, and the same panels are then refined to the
requested tolerance.

The conditionally convergent triple-Bessel integral has no damping of its
own; it is regularized with an exponential factor e^(-eps r) and the
results are Richardson-extrapolated to eps = 0 over a decreasing eps
sequence.  The extrapolation increments must decrease, otherwise
NonConvergence is raised.  This check is intentionally looser (1e-3
scale) than the damped integrals.

Everything is deterministic: no randomized quadrature anywhere, identical
inputs produce identical outputs.  Each integral has a budget of 10^6
integrand evaluations over all of its passes, and never spends more:
panels that would exceed it are refused before they are evaluated, and a
grid that could never fit before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import specfun
from .closedform import _LAMBDA_MAX, _three_bessel_orders
from .specfun import _L_MAX_BESSEL, _order, _positive_finite, _reachable_tolerance

# QUADPACK qk15 (Piessens et al. 1983): Kronrod nodes x >= 0 and their
# weights, and the weights of the 7-point Gauss rule on the nodes xgk[1::2]
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# the 15 nodes in ascending order, and one weight column per rule:
# Kronrod 15 on every node, Gauss 7 on the odd-indexed nodes
_GK15_X = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
_GK15_W = np.zeros((15, 2))
_GK15_W[:, 0] = _WGK + _WGK[-2::-1]
_GK15_W[1::2, 1] = _WG + _WG[-2::-1]

_ENVELOPE = 1.16          # sup of x|j_l(x)| over x >= 2(l+1), all l <= 50
_BUDGET = 1_000_000       # integrand evaluations per integral, over all of its passes
_LOG_BOUND_MAX = 709.0    # below log of the largest float, so exp() stays finite
_REGULARIZING_EPS = (0.1, 0.05, 0.025, 0.0125)  # dampings of the triple-Bessel integral


class NonConvergence(Exception):
    """The quadrature budget was exhausted, the integrand left the float range or an extrapolation failed."""


@dataclass(frozen=True)
class QuadratureResult:
    """An oracle value with what was spent on it.

    `evaluations` counts integrand evaluations over all passes;
    `truncation_radius` is where a semi-infinite range was cut (None for
    a finite range) and `tail_bound` the analytic bound on what was cut
    off, already included in `abs_error_estimate`.
    """

    value: float
    abs_error_estimate: float
    panels_used: int
    converged: bool
    evaluations: int
    truncation_radius: Optional[float] = None
    tail_bound: float = 0.0


class _Panels:
    """Adaptive Gauss–Kronrod state of one integral, refined in passes.

    The panels start on `edges`; `add` evaluates more panels, and
    `refine` splits panels until the summed error estimate meets a
    tolerance.  The evaluation budget covers every pass over the integral;
    `_extend` refuses panels that would pass it before evaluating any.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, context: str) -> None:
        self.f, self.context = f, context
        self.lo = self.hi = self.val = self.err = np.empty(0)
        self.evaluations = 0
        self.add(edges)

    def add(self, edges: np.ndarray) -> None:
        self._extend(np.ones(self.lo.size, dtype=bool), edges[:-1], edges[1:])

    def _extend(self, keep: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Keep the current panels where `keep` is set and evaluate the panels [lo, hi]."""
        if self.evaluations + _GK15_X.size * lo.size > _BUDGET:
            raise NonConvergence(f"{self.context}: budget of {_BUDGET} evaluations exhausted")
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK15_X
        # a non-finite value is refused below, so its overflow warning is not shown
        with np.errstate(all="ignore"):
            fx = np.asarray(self.f(x.ravel()), dtype=float).reshape(x.shape)
            kronrod, gauss = ((fx @ _GK15_W) * half[:, None]).T
        self.evaluations += x.size
        bad = ~(np.isfinite(kronrod) & np.isfinite(gauss))
        if bad.any():
            i = int(np.argmax(bad))
            raise NonConvergence(
                f"{self.context}: integrand not finite on the panel [{lo[i]:.6g}, {hi[i]:.6g}]"
            )
        self.lo = np.concatenate([self.lo[keep], lo])
        self.hi = np.concatenate([self.hi[keep], hi])
        self.val = np.concatenate([self.val[keep], kronrod])
        self.err = np.concatenate([self.err[keep], np.abs(kronrod - gauss)])

    def refine(self, rel_tol: float) -> tuple[float, float]:
        """(value, error estimate) once the estimate meets rel_tol.

        Raises NonConvergence when the evaluation budget runs out first.
        """
        while True:
            total = float(self.val.sum())
            toterr = float(self.err.sum())
            target = rel_tol * max(abs(total), 1e-300)
            # roundoff floor: once panel values cancel down to machine noise,
            # further splitting cannot reduce the estimate (zero crossings of
            # oscillatory integrals); return the honest absolute error instead
            noise = 32.0 * np.finfo(float).eps * float(np.abs(self.val).sum())
            if toterr <= max(target, noise):
                return total, toterr
            split = self.err > target / self.err.size
            if not split.any():
                split = self.err == self.err.max()
            ls, hs = self.lo[split], self.hi[split]
            mids = 0.5 * (ls + hs)
            self._extend(~split, np.concatenate([ls, mids]), np.concatenate([mids, hs]))


def _result(
    value: float, err: float, rel_tol: float, panels: int, evaluations: int,
    truncation_radius: Optional[float] = None, tail_bound: float = 0.0,
) -> QuadratureResult:
    return QuadratureResult(
        value, err, panels, err <= rel_tol * max(1.0, abs(value)), evaluations,
        truncation_radius, tail_bound,
    )


def _initial_edges(
    a: float, b: float, max_width: float, context: str, min_panels: int = 8
) -> np.ndarray:
    """Edges of equal panels from a to b, at least min_panels, none wider than max_width.

    Raises NonConvergence, before building them, when their evaluations
    alone would exceed the budget.
    """
    n = (b - a) / max_width
    n = max(min_panels, math.ceil(n)) if math.isfinite(n) else math.inf
    if _GK15_X.size * n > _BUDGET:
        raise NonConvergence(
            f"{context}: a grid of {n:.3g} panels would exceed the budget of {_BUDGET} evaluations"
        )
    return np.linspace(a, b, n + 1)


def _log_exp_poly_tail(m: int, alpha: float, r: float) -> float:
    """log of the exact integral_r^inf t^m e^(-alpha t) dt for integer m >= 0.

    The integral is m!/alpha^(m+1) e^(-z) sum_{k<=m} z^k/k! with z = alpha r;
    its logarithm stays in range where the integral itself does not.
    """
    z = alpha * r
    log_terms = np.concatenate(([0.0], np.cumsum(np.log(z / np.arange(1.0, m + 1)))))
    top = float(log_terms.max())
    return (
        math.lgamma(m + 1) - (m + 1) * math.log(alpha) - z
        + top + math.log(float(np.exp(log_terms - top).sum()))
    )


def _radial_tail_bound(n: int, alpha: float, ks: Sequence[float], r: float) -> float:
    """Bound on the neglected tail of r^n e^(-ar) prod j_l(k_i r) beyond r; inf past the float range."""
    log_bound = sum(math.log(_ENVELOPE / k) for k in ks)
    m = n - len(ks)
    if m >= 0:
        log_bound += _log_exp_poly_tail(m, alpha, r)
    else:
        log_bound += m * math.log(r) - alpha * r - math.log(alpha)
    return math.exp(log_bound) if log_bound < _LOG_BOUND_MAX else math.inf


def _radial_quadrature(
    n: int,
    alpha: float,
    ks: Sequence[float],
    ls: Sequence[int],
    rel_tol: float,
    context: str,
) -> QuadratureResult:
    """Quadrature of integral_0^inf r^n e^(-alpha r) prod_i j_ls[i](ks[i] r) dr.

    Picks a truncation radius from the analytic tail bound (scaled by a
    coarse pass), appends panels up to it, then refines the same panels,
    none wider than half the shortest oscillation period.
    """
    _reachable_tolerance(rel_tol)

    def f(r: np.ndarray) -> np.ndarray:
        out = r**n * np.exp(-alpha * r)
        for l, k in zip(ls, ks):
            out = out * specfun.spherical_bessel_j_array(l, k * r)
        return out

    max_width = math.pi / max(ks)
    r_end = max(40.0 / alpha, 6.0 * max_width, *[2.0 * (l + 1) / k for l, k in zip(ls, ks)])
    panels = _Panels(f, _initial_edges(0.0, r_end, max_width, context), context)
    coarse, _ = panels.refine(1e-4)
    scale = max(abs(coarse), 1e-300)
    r_coarse = r_end
    while _radial_tail_bound(n, alpha, ks, r_end) > 0.3 * rel_tol * scale:
        if r_end > 1e9:
            raise NonConvergence(f"{context}: truncation radius grew without bound")
        r_end *= 1.5
    if r_end > r_coarse:
        panels.add(_initial_edges(r_coarse, r_end, max_width, context, min_panels=1))
    value, err = panels.refine(rel_tol)
    tail = _radial_tail_bound(n, alpha, ks, r_end)
    return _result(value, err + tail, rel_tol, panels.lo.size, panels.evaluations, r_end, tail)


def integrate_two_bessel(
    n: int,
    lambda1: int,
    lambda2: int,
    k1: float,
    k2: float,
    alpha: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive quadrature of integral_0^inf r^n e^(-ar) j_l1(k1 r) j_l2(k2 r) dr."""
    lambda1 = _order("lambda1", lambda1, _L_MAX_BESSEL)
    lambda2 = _order("lambda2", lambda2, _L_MAX_BESSEL)
    n = _order("n", n, maximum=None)
    _positive_finite(k1=k1, k2=k2, alpha=alpha)
    return _radial_quadrature(
        n, alpha, (k1, k2), (lambda1, lambda2), rel_tol,
        f"two-Bessel integral n={n} l=({lambda1},{lambda2})",
    )


def integrate_single_bessel(
    lambda3: int,
    alpha: float,
    k3: float,
    offset: int,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Quadrature of integral_0^inf r^(l3+offset) e^(-ar) j_l3(k3 r) dr, offset in {1, 2}."""
    if offset not in (1, 2):
        raise ValueError(f"offset must be 1 or 2, got {offset!r}")
    lambda3 = _order("lambda3", lambda3, _L_MAX_BESSEL)
    _positive_finite(alpha=alpha, k3=k3)
    return _radial_quadrature(
        lambda3 + offset, alpha, (k3,), (lambda3,), rel_tol, f"single-Bessel transform l3={lambda3}"
    )


def integrate_q_definition(L: int, M: int, y: float, rel_tol: float = 1e-10) -> QuadratureResult:
    """Quadrature of integral_{-1}^{1} P_L(x) / (y - x)^(M+1) dx for y > 1.

    Evaluated in a cancellation-free form: integrating by parts L times
    against the Rodrigues representation of P_L turns the oscillatory
    integrand into the positive one

        (M+L)! / (M! 2^L L!) * (1 - x^2)^L (y - x)^(-M-L-1),

    (boundary terms vanish identically), and the substitution
    x = 1 - (y-1)(e^u - 1) then clusters nodes at the x = 1 peak.  Plain
    float quadrature of the raw integrand would lose all significance for
    large L and y, where the value sits ~(2y)^(-L) below the integrand
    scale.  This stays a direct quadrature of the defining integral; none
    of the recurrence machinery behind paper_q_combination enters.
    """
    L, M = _order("L", L, maximum=20), _order("M", M, maximum=8)
    y = float(y)
    if not (y > 1.0):
        raise ValueError(f"argument must satisfy y > 1, got {y!r}")
    _reachable_tolerance(rel_tol)
    u_top = math.log((y + 1.0) / (y - 1.0))
    ym1 = y - 1.0
    power = M + L

    def f(u: np.ndarray) -> np.ndarray:
        t = ym1 * np.expm1(u)          # 1 - x, exact where the peak sits
        one_minus_x2 = t * (2.0 - t)   # (1-x)(1+x) without cancellation at x=1
        np.clip(one_minus_x2, 0.0, None, out=one_minus_x2)
        return one_minus_x2**L * np.exp(-power * u)

    context = "Q-definition integral"
    panels = _Panels(f, _initial_edges(0.0, u_top, u_top / max(8, L + 2), context), context)
    value, err = panels.refine(rel_tol)
    scale = (
        math.factorial(M + L) / (math.factorial(M) * 2**L * math.factorial(L))
        * ym1 ** (-power)
    )
    return _result(scale * value, scale * err, rel_tol, panels.lo.size, panels.evaluations)


def integrate_three_bessel_regularized(
    lambda1: int, lambda2: int, lambda3: int, k1: float, k2: float, k3: float
) -> QuadratureResult:
    """Triple-Bessel integral by damped quadrature extrapolated to zero damping.

    Computes integral r^2 e^(-eps r) j_l1(k1 r) j_l2(k2 r) j_l3(k3 r) dr
    for each eps of `_REGULARIZING_EPS` and Richardson-extrapolates to
    eps = 0; the extrapolation increments must decrease or NonConvergence
    is raised.  The result counts as converged within a relative 1e-3.
    """
    ls = _three_bessel_orders(lambda1, lambda2, lambda3, k1, k2, k3)
    eps, rel_tol = _REGULARIZING_EPS, 1e-3
    inner_tol = 1e-9
    parts = [
        _radial_quadrature(2, e, (k1, k2, k3), ls, inner_tol, f"regularized triple-Bessel eps={e}")
        for e in eps
    ]
    vals = [q.value for q in parts]
    quad_err = sum(abs(q.abs_error_estimate) for q in parts)
    # Neville extrapolation of the polynomial through (eps_i, J_i) to eps = 0
    t = list(vals)
    diag = [t[0]]
    for j in range(1, len(eps)):
        for i in range(len(eps) - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * eps[i] / (eps[i - j] - eps[i])
        diag.append(t[len(eps) - 1])
    scale = max(1.0, max(abs(v) for v in vals))
    floor = max(1e-12 * scale, 10.0 * quad_err)
    increments = [abs(b - a) for a, b in zip(diag, diag[1:])]
    for d_prev, d_next in zip(increments, increments[1:]):
        if d_next > max(d_prev, floor):
            raise NonConvergence(
                "triple-Bessel extrapolation increments failed to decrease: "
                f"{increments!r}"
            )
    value = diag[-1]
    err = max(increments[-1], quad_err)
    return _result(
        value, err, rel_tol, sum(q.panels_used for q in parts), sum(q.evaluations for q in parts),
        max(q.truncation_radius for q in parts), sum(q.tail_bound for q in parts),
    )


def check_eq_2_6(
    l: int,
    lambda3: int,
    k1: float,
    k2: float,
    alpha: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Wavenumber-kernel integral for cross-checking the intermediate identity.

    Quadrature of integral k3 / (k3^2 + a^2)^(l3+1) P_l(Delta(k3)) dk3 over
    the triangle-allowed window k3 in [|k1 - k2|, k1 + k2], where the step
    factor is 1.  The caller compares against
    R(l, l3, y) / ((2 k1 k2)^l3 l3!).
    """
    l, lambda3 = _order("l", l, _LAMBDA_MAX), _order("lambda3", lambda3, _LAMBDA_MAX)
    _positive_finite(k1=k1, k2=k2, alpha=alpha)
    _reachable_tolerance(rel_tol)
    lo = abs(k1 - k2)
    hi = k1 + k2
    two_k1k2 = 2.0 * k1 * k2

    def f(k3: np.ndarray) -> np.ndarray:
        delta = (k1 * k1 + k2 * k2 - k3 * k3) / two_k1k2
        np.clip(delta, -1.0, 1.0, out=delta)
        return k3 / (k3 * k3 + alpha * alpha) ** (lambda3 + 1) * specfun.legendre_p_array(l, delta)

    context = "wavenumber-kernel integral"
    panels = _Panels(f, _initial_edges(lo, hi, (hi - lo) / max(8, l + 2), context), context)
    value, err = panels.refine(rel_tol)
    return _result(value, err, rel_tol, panels.lo.size, panels.evaluations)


def check_eq_2_12(l: int, L: int, y0: float, rel_tol: float = 1e-8) -> QuadratureResult:
    """Integral of R(l, L+1, y) over [y0, inf) for the derivative-order identity.

    The result should reproduce R(l, L, y0).  The range splits at
    B = max(2 y0, y0 + 3); the far part is compactified with
    y = 1 + (B-1)/t, whose integrand ~ t^(l+L) is smooth on (0, 1], so no
    explicit tail bound is needed.
    """
    l, L = _order("l", l, _LAMBDA_MAX), _order("L", L, maximum=12)
    y0 = float(y0)
    if not (y0 > 1.0):
        raise ValueError(f"lower limit must satisfy y0 > 1, got {y0!r}")
    _reachable_tolerance(rel_tol)
    m = L + 1
    b_split = max(2.0 * y0, y0 + 3.0)

    def f_near(y: np.ndarray) -> np.ndarray:
        return specfun.paper_q_combination_all(l, m, y)[l]

    def f_far(t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(t)
        yv = 1.0 + (b_split - 1.0) / t
        near = yv < 1e12  # farther out the integrand is underflow-level
        tn = t[near]
        out[near] = specfun.paper_q_combination_all(l, m, yv[near])[l] * (b_split - 1.0) / (tn * tn)
        return out

    # geometric panels in (y - 1) near the lower end, where the integrand peaks
    n_panels = max(12, int(4 * math.log2((b_split - 1.0) / (y0 - 1.0))) + 4)
    ratio = ((b_split - 1.0) / (y0 - 1.0)) ** (1.0 / n_panels)
    edges = 1.0 + (y0 - 1.0) * ratio ** np.arange(n_panels + 1)
    edges[0], edges[-1] = y0, b_split
    near = _Panels(f_near, edges, "derivative-order identity")
    v_near, e_near = near.refine(rel_tol / 2)
    far = _Panels(f_far, np.linspace(0.0, 1.0, 17), "derivative-order identity tail")
    v_far, e_far = far.refine(rel_tol / 2)
    return _result(
        v_near + v_far, e_near + e_far, rel_tol,
        near.lo.size + far.lo.size, near.evaluations + far.evaluations,
    )
