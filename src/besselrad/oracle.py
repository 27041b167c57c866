"""Independent numerical verification of every closed form in the package.

Adaptive panel quadrature with a fixed high-order Gauss rule (15-point)
and an embedded lower-order estimate (7-point) for the per-panel error.
Panels are never wider than half the shortest oscillation period of the
integrand, so the embedded estimate stays honest on the oscillatory
spherical-Bessel products.  Truncation of the semi-infinite radial range
is controlled by an analytic tail bound: beyond the turning points every
j_l(kr) envelope is below 1.16/(kr), so the neglected tail is bounded by
an exponential-polynomial integral with a closed form.

The conditionally convergent triple-Bessel integral has no damping of its
own; it is regularized with an exponential factor e^(-eps r) and the
results are Richardson-extrapolated to eps = 0 over a decreasing eps
sequence.  The extrapolation increments must decrease, otherwise
NonConvergence is raised.  This check is intentionally looser (1e-3
scale) than the damped integrals.

Everything is deterministic: no randomized quadrature anywhere, identical
inputs produce identical outputs.  The evaluation budget (default 10^6
integrand evaluations) can be overridden with the BESSELRAD_PANEL_BUDGET
environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import specfun
from .closedform import IntegralSpec, ThreeBesselSpec, _order, _positive_finite

_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)

_ENVELOPE = 1.16          # sup of x|j_l(x)| over x >= 2(l+1), all l <= 50
_BUDGET_ENV = "BESSELRAD_PANEL_BUDGET"
_DEFAULT_BUDGET = 1_000_000


class NonConvergence(Exception):
    """The quadrature budget was exhausted or an extrapolation failed."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    panels_used: int
    converged: bool


def _budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None


def _adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    rel_tol: float,
    budget: int,
    context: str,
) -> tuple[float, float, int, int]:
    """Refine panels until the summed error estimate meets rel_tol.

    Returns (value, error_estimate, panels, evaluations); raises
    NonConvergence when the evaluation budget runs out first.
    """
    lo = edges[:-1].astype(float)
    hi = edges[1:].astype(float)

    def panel_eval(plo: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mid = 0.5 * (plo + phi)
        half = 0.5 * (phi - plo)
        x15 = mid[:, None] + half[:, None] * _G15_X[None, :]
        x7 = mid[:, None] + half[:, None] * _G7_X[None, :]
        f15 = np.asarray(f(x15.ravel()), dtype=float).reshape(x15.shape)
        f7 = np.asarray(f(x7.ravel()), dtype=float).reshape(x7.shape)
        v15 = (f15 * _G15_W[None, :]).sum(axis=1) * half
        v7 = (f7 * _G7_W[None, :]).sum(axis=1) * half
        return v15, np.abs(v15 - v7)

    val, err = panel_eval(lo, hi)
    evals = 22 * lo.size
    while True:
        total = float(val.sum())
        toterr = float(err.sum())
        target = rel_tol * max(abs(total), 1e-300)
        # roundoff floor: once panel values cancel down to machine noise,
        # further splitting cannot reduce the estimate (zero crossings of
        # oscillatory integrals); return the honest absolute error instead
        noise = 32.0 * np.finfo(float).eps * float(np.abs(val).sum())
        if toterr <= max(target, noise):
            return total, toterr, lo.size, evals
        if evals >= budget:
            raise NonConvergence(
                f"{context}: budget of {budget} evaluations exhausted "
                f"(error {toterr:.3e} vs target {target:.3e})"
            )
        split = err > target / err.size
        if not split.any():
            split = err == err.max()
        keep = ~split
        ls, hs = lo[split], hi[split]
        mids = 0.5 * (ls + hs)
        new_lo = np.concatenate([ls, mids])
        new_hi = np.concatenate([mids, hs])
        new_val, new_err = panel_eval(new_lo, new_hi)
        evals += 22 * new_lo.size
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


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
) -> tuple[float, float, int, int]:
    """Common driver for the damped radial integrals.

    Picks a truncation radius from the analytic tail bound (scaled by a
    coarse pass), then refines panels no wider than half the shortest
    oscillation period.
    """
    budget = _budget()
    kmax = max(ks)
    max_width = math.pi / kmax
    r_end = max(40.0 / alpha, 6.0 * max_width, *[2.0 * (l + 1) / k for l, k in zip(ls, ks)])
    coarse, _, _, ev0 = _adaptive(f, _initial_edges(0.0, r_end, max_width), 1e-4, budget, context)
    scale = max(abs(coarse), 1e-300)
    while _radial_tail_bound(n, alpha, ks, r_end) > 0.3 * rel_tol * scale:
        if r_end > 1e9:
            raise NonConvergence(f"{context}: truncation radius grew without bound")
        r_end *= 1.5
    value, err, panels, ev = _adaptive(
        f, _initial_edges(0.0, r_end, max_width), rel_tol, budget, context
    )
    return value, err + _radial_tail_bound(n, alpha, ks, r_end), panels, ev0 + ev


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
    IntegralSpec(lambda1, lambda2, k1, k2, alpha, n)  # validates
    if rel_tol < 1e-12:
        raise ValueError(f"rel_tol must be >= 1e-12, got {rel_tol!r}")

    def f(r: np.ndarray) -> np.ndarray:
        return (
            r**n
            * np.exp(-alpha * r)
            * specfun.spherical_bessel_j_array(lambda1, k1 * r)
            * specfun.spherical_bessel_j_array(lambda2, k2 * r)
        )

    value, err, panels, _ = _radial_quadrature(
        f, n, alpha, (k1, k2), (lambda1, lambda2), rel_tol,
        f"two-Bessel integral n={n} l=({lambda1},{lambda2})",
    )
    return QuadratureResult(value, err, panels, err <= rel_tol * max(1.0, abs(value)))


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

    value, err, panels, _ = _radial_quadrature(
        f, n, alpha, (k3,), (lambda3,), rel_tol, f"single-Bessel transform l3={lambda3}"
    )
    return QuadratureResult(value, err, panels, err <= rel_tol * max(1.0, abs(value)))


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
    budget = _budget()
    u_top = math.log((y + 1.0) / (y - 1.0))
    ym1 = y - 1.0
    power = M + L

    def f(u: np.ndarray) -> np.ndarray:
        t = ym1 * np.expm1(u)          # 1 - x, exact where the peak sits
        one_minus_x2 = t * (2.0 - t)   # (1-x)(1+x) without cancellation at x=1
        np.clip(one_minus_x2, 0.0, None, out=one_minus_x2)
        return one_minus_x2**L * np.exp(-power * u)

    edges = _initial_edges(0.0, u_top, u_top / max(8, L + 2))
    value, err, panels, _ = _adaptive(f, edges, rel_tol, budget, "Q-definition integral")
    scale = (
        math.factorial(M + L) / (math.factorial(M) * 2**L * math.factorial(L))
        * ym1 ** (-power)
    )
    value, err = scale * value, scale * err
    return QuadratureResult(value, err, panels, err <= rel_tol * max(1.0, abs(value)))


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
    vals = []
    quad_err = 0.0
    panels_total = 0
    for e in eps:

        def f(r: np.ndarray, _e: float = e) -> np.ndarray:
            return (
                r**2
                * np.exp(-_e * r)
                * specfun.spherical_bessel_j_array(l1, k1 * r)
                * specfun.spherical_bessel_j_array(l2, k2 * r)
                * specfun.spherical_bessel_j_array(l3, k3 * r)
            )

        v, errq, panels, _ = _radial_quadrature(
            f, 2, e, (k1, k2, k3), (l1, l2, l3), inner_tol,
            f"regularized triple-Bessel eps={e}",
        )
        vals.append(v)
        quad_err += abs(errq)
        panels_total += panels
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
    return QuadratureResult(value, err, panels_total, err <= rel_tol * max(1.0, abs(value)))


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
    l, lambda3 = _order("l", l), _order("lambda3", lambda3)
    _positive_finite(k1=k1, k2=k2, alpha=alpha)
    lo = abs(k1 - k2)
    hi = k1 + k2
    two_k1k2 = 2.0 * k1 * k2

    def f(k3: np.ndarray) -> np.ndarray:
        delta = (k1 * k1 + k2 * k2 - k3 * k3) / two_k1k2
        np.clip(delta, -1.0, 1.0, out=delta)
        return k3 / (k3 * k3 + alpha * alpha) ** (lambda3 + 1) * specfun.legendre_p_array(l, delta)

    edges = _initial_edges(lo, hi, (hi - lo) / max(8, l + 2))
    value, err, panels, _ = _adaptive(f, edges, rel_tol, _budget(), "wavenumber-kernel integral")
    return QuadratureResult(value, err, panels, err <= rel_tol * max(1.0, abs(value)))


def check_eq_2_12(l: int, L: int, y0: float, rel_tol: float = 1e-8) -> QuadratureResult:
    """Integral of R(l, L+1, y) over [y0, inf) for the derivative-order identity.

    The result should reproduce R(l, L, y0).  The range splits at
    B = max(2 y0, y0 + 3); the far part is compactified with
    y = 1 + (B-1)/t, whose integrand ~ t^(l+L) is smooth on (0, 1], so no
    explicit tail bound is needed.
    """
    l, L = _order("l", l), _order("L", L, maximum=12)
    y0 = float(y0)
    if not (y0 > 1.0):
        raise ValueError(f"lower limit must satisfy y0 > 1, got {y0!r}")
    m = L + 1
    budget = _budget()
    b_split = max(2.0 * y0, y0 + 3.0)

    def f_near(y: np.ndarray) -> np.ndarray:
        return np.array([specfun.paper_q_combination(l, m, float(v)) for v in y])

    def f_far(t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(t)
        for i, ti in enumerate(t):
            yv = 1.0 + (b_split - 1.0) / ti
            if yv < 1e12:  # farther out the integrand is underflow-level
                out[i] = specfun.paper_q_combination(l, m, yv) * (b_split - 1.0) / (ti * ti)
        return out

    # geometric panels in (y - 1) near the lower end, where the integrand peaks
    n_panels = max(12, int(4 * math.log2((b_split - 1.0) / (y0 - 1.0))) + 4)
    ratio = ((b_split - 1.0) / (y0 - 1.0)) ** (1.0 / n_panels)
    edges = 1.0 + (y0 - 1.0) * ratio ** np.arange(n_panels + 1)
    edges[0], edges[-1] = y0, b_split
    v_near, e_near, p_near, _ = _adaptive(f_near, edges, rel_tol / 2, budget, "derivative-order identity")
    v_far, e_far, p_far, _ = _adaptive(
        f_far, np.linspace(0.0, 1.0, 17), rel_tol / 2, budget, "derivative-order identity tail"
    )
    value = v_near + v_far
    err = e_near + e_far
    return QuadratureResult(value, err, p_near + p_far, err <= rel_tol * max(1.0, abs(value)))
