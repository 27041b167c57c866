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
inputs produce identical outputs.  The evaluation budget (default 10^6
integrand evaluations per integral, over all of its passes) can be
overridden with the BESSELRAD_PANEL_BUDGET environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import specfun
from .closedform import _LAMBDA_MAX, ThreeBesselSpec
from .specfun import _order, _positive_finite

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
_BUDGET_ENV = "BESSELRAD_PANEL_BUDGET"
_DEFAULT_BUDGET = 1_000_000


class NonConvergence(Exception):
    """The quadrature budget was exhausted or an extrapolation failed."""


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


def _budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None


class _Panels:
    """Adaptive Gauss–Kronrod state of one integral, refined in passes.

    The panels start on `edges`; `add` evaluates more panels, and
    `refine` splits panels until the summed error estimate meets a
    tolerance.  The evaluation budget covers every pass over the integral.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, context: str) -> None:
        self.f, self.context, self.budget = f, context, _budget()
        self.lo = self.hi = self.val = self.err = np.empty(0)
        self.evaluations = 0
        self.add(edges)

    def add(self, edges: np.ndarray) -> None:
        self._extend(np.ones(self.lo.size, dtype=bool), edges[:-1], edges[1:])

    def _extend(self, keep: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Keep the current panels where `keep` is set and evaluate the panels [lo, hi]."""
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK15_X
        fx = np.asarray(self.f(x.ravel()), dtype=float).reshape(x.shape)
        self.evaluations += x.size
        kronrod, gauss = ((fx @ _GK15_W) * half[:, None]).T
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
            if self.evaluations >= self.budget:
                raise NonConvergence(
                    f"{self.context}: budget of {self.budget} evaluations exhausted "
                    f"(error {toterr:.3e} vs target {target:.3e})"
                )
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


def _initial_edges(a: float, b: float, max_width: float, min_panels: int = 8) -> np.ndarray:
    n = max(min_panels, int(math.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)


def _exp_poly_tail(m: int, alpha: float, r: float) -> float:
    """Exact integral_r^inf t^m e^(-alpha t) dt for integer m >= 0."""
    s = 0.0
    for i in range(m + 1):
        s += math.factorial(m) / math.factorial(m - i) * r ** (m - i) / alpha ** (i + 1)
    return math.exp(-alpha * r) * s


def _radial_tail_bound(n: int, alpha: float, ks: Sequence[float], r: float) -> float:
    """Bound on the neglected tail of r^n e^(-ar) prod j_l(k_i r) beyond r."""
    env = 1.0
    for k in ks:
        env *= _ENVELOPE / k
    m = n - len(ks)
    if m >= 0:
        return env * _exp_poly_tail(m, alpha, r)
    return env * r**m * math.exp(-alpha * r) / alpha


def _radial_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    alpha: float,
    ks: Sequence[float],
    ls: Sequence[int],
    rel_tol: float,
    context: str,
) -> QuadratureResult:
    """Common driver for the damped radial integrals.

    Picks a truncation radius from the analytic tail bound (scaled by a
    coarse pass), appends panels up to it, then refines the same panels,
    none wider than half the shortest oscillation period.
    """
    max_width = math.pi / max(ks)
    r_end = max(40.0 / alpha, 6.0 * max_width, *[2.0 * (l + 1) / k for l, k in zip(ls, ks)])
    panels = _Panels(f, _initial_edges(0.0, r_end, max_width), context)
    coarse, _ = panels.refine(1e-4)
    scale = max(abs(coarse), 1e-300)
    r_coarse = r_end
    while _radial_tail_bound(n, alpha, ks, r_end) > 0.3 * rel_tol * scale:
        if r_end > 1e9:
            raise NonConvergence(f"{context}: truncation radius grew without bound")
        r_end *= 1.5
    if r_end > r_coarse:
        panels.add(_initial_edges(r_coarse, r_end, max_width, min_panels=1))
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
    for name, v in (("lambda1", lambda1), ("lambda2", lambda2), ("n", n)):
        _order(name, v, maximum=None)
    _positive_finite(k1=k1, k2=k2, alpha=alpha)
    if rel_tol < 1e-12:
        raise ValueError(f"rel_tol must be >= 1e-12, got {rel_tol!r}")

    def f(r: np.ndarray) -> np.ndarray:
        return (
            r**n
            * np.exp(-alpha * r)
            * specfun.spherical_bessel_j_array(lambda1, k1 * r)
            * specfun.spherical_bessel_j_array(lambda2, k2 * r)
        )

    return _radial_quadrature(
        f, n, alpha, (k1, k2), (lambda1, lambda2), rel_tol,
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
    lambda3 = _order("lambda3", lambda3, maximum=50)
    _positive_finite(alpha=alpha, k3=k3)
    n = lambda3 + offset

    def f(r: np.ndarray) -> np.ndarray:
        return r**n * np.exp(-alpha * r) * specfun.spherical_bessel_j_array(lambda3, k3 * r)

    return _radial_quadrature(
        f, n, alpha, (k3,), (lambda3,), rel_tol, f"single-Bessel transform l3={lambda3}"
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
    u_top = math.log((y + 1.0) / (y - 1.0))
    ym1 = y - 1.0
    power = M + L

    def f(u: np.ndarray) -> np.ndarray:
        t = ym1 * np.expm1(u)          # 1 - x, exact where the peak sits
        one_minus_x2 = t * (2.0 - t)   # (1-x)(1+x) without cancellation at x=1
        np.clip(one_minus_x2, 0.0, None, out=one_minus_x2)
        return one_minus_x2**L * np.exp(-power * u)

    panels = _Panels(f, _initial_edges(0.0, u_top, u_top / max(8, L + 2)), "Q-definition integral")
    value, err = panels.refine(rel_tol)
    scale = (
        math.factorial(M + L) / (math.factorial(M) * 2**L * math.factorial(L))
        * ym1 ** (-power)
    )
    return _result(scale * value, scale * err, rel_tol, panels.lo.size, panels.evaluations)


def integrate_three_bessel_regularized(
    spec: ThreeBesselSpec,
    eps_list: Sequence[float] = (0.1, 0.05, 0.025, 0.0125),
    rel_tol: float = 1e-3,
) -> QuadratureResult:
    """Triple-Bessel integral by damped quadrature extrapolated to zero damping.

    Computes integral r^2 e^(-eps r) j j j dr for each eps and Richardson-
    extrapolates to eps = 0; the extrapolation increments must decrease or
    NonConvergence is raised.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 2 or any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be a decreasing sequence of positive values")
    l1, l2, l3 = spec.lambda1, spec.lambda2, spec.lambda3
    k1, k2, k3 = spec.k1, spec.k2, spec.k3
    inner_tol = 1e-9
    parts = []
    for e in eps:

        def f(r: np.ndarray, _e: float = e) -> np.ndarray:
            return (
                r**2
                * np.exp(-_e * r)
                * specfun.spherical_bessel_j_array(l1, k1 * r)
                * specfun.spherical_bessel_j_array(l2, k2 * r)
                * specfun.spherical_bessel_j_array(l3, k3 * r)
            )

        parts.append(_radial_quadrature(
            f, 2, e, (k1, k2, k3), (l1, l2, l3), inner_tol,
            f"regularized triple-Bessel eps={e}",
        ))
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
    lo = abs(k1 - k2)
    hi = k1 + k2
    two_k1k2 = 2.0 * k1 * k2

    def f(k3: np.ndarray) -> np.ndarray:
        delta = (k1 * k1 + k2 * k2 - k3 * k3) / two_k1k2
        np.clip(delta, -1.0, 1.0, out=delta)
        return k3 / (k3 * k3 + alpha * alpha) ** (lambda3 + 1) * specfun.legendre_p_array(l, delta)

    panels = _Panels(f, _initial_edges(lo, hi, (hi - lo) / max(8, l + 2)), "wavenumber-kernel integral")
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
