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

One panel engine, `_Panels`, holds the panels of many integrals at once
and refines them in lockstep: each pass evaluates the new panels of every
unfinished integral in one integrand call per chunk of at most `_CHUNK`
nodes, and each integral stops against its own tolerance.  A batch of
points of one order (`integrate_two_bessel_batch`) is one such set of
integrals; a single integral is a batch of one.  A point gives the same
bits alone or in any batch: a panel's Kronrod and Gauss sums run over its
nodes in ascending order, an integral's convergence tests sum its own
panels in the order they were made, and its value is their pairwise sum
in that order, each apart from every other integral's.

The conditionally convergent triple-Bessel integral has no damping of its
own; it is regularized with an exponential factor e^(-eps r) and the
results are Richardson-extrapolated to eps = 0 over a decreasing eps
sequence, all four dampings in one batch.  The extrapolation increments
must decrease, otherwise NonConvergence is raised.  This check is
intentionally looser (1e-3 scale) than the damped integrals.

Everything is deterministic: no randomized quadrature anywhere, identical
inputs produce identical outputs.  Each integral has a budget of 10^6
integrand evaluations over all of its passes, and never spends more:
panels that would exceed it are refused before they are evaluated, and a
grid that could never fit before it is built.  An integral that runs out
of budget, or whose integrand leaves the float range, stops with its
NonConvergence and leaves the other integrals of its batch unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import specfun
from .closedform import _LAMBDA_MAX, _raised, _three_bessel_orders
from .specfun import _L_MAX_BESSEL, _above_one, _order, _positive_finite, _reachable_tolerance

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
_CHUNK = 1 << 13          # integrand nodes per call at most, which bounds the engine's scratch arrays
_LOG_BOUND_MAX = 709.0    # below log of the largest float, so exp() stays finite
_EPS = float(np.finfo(float).eps)
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


# an oracle batch's answer for one point: its result, or the error a one-point call
# raises there, as `closedform.Outcome` is for the closed form (`_raised` takes both)
Outcome = Union[QuadratureResult, ValueError, NonConvergence]


def _panel_count(a, b, width, min_panels: int):
    """Panels of an equal grid from a to b, at least min_panels and none wider than width; inf past the float range."""
    n = np.asarray((b - a) / width, dtype=float)
    return np.where(np.isfinite(n), np.maximum(min_panels, np.ceil(n)), np.inf)


class _Panels:
    """Adaptive Gauss–Kronrod state of many integrals, refined in lockstep.

    Panel i belongs to integral `owner[i]`; `f(x, owner)` gives, for each
    panel j, the integrand of integral owner[j] at its nodes x[:, j].
    `grid` and `add` evaluate new panels, and `refine` splits the panels
    of every unfinished integral until its summed error estimate meets the
    tolerance.  The evaluation budget covers every pass over an integral;
    `_extend` refuses an integral's panels that would pass it before
    evaluating any.  An integral that runs out of budget or meets a
    non-finite panel stops: its NonConvergence goes to `failed`, and its
    panels leave the arrays.
    """

    def __init__(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray], contexts: Sequence[str]) -> None:
        self.f, self.contexts = f, list(contexts)
        self.live = np.ones(len(self.contexts), dtype=bool)
        self.evaluations = np.zeros(len(self.contexts), dtype=np.int64)
        self.failed: dict[int, NonConvergence] = {}
        self.owner = np.empty(0, dtype=np.intp)
        self.lo = self.hi = self.val = self.err = np.empty(0)

    def _fail(self, i: int, reason: str) -> None:
        self.failed[int(i)] = NonConvergence(f"{self.contexts[i]}: {reason}")
        self.live[i] = False

    def counts(self) -> np.ndarray:
        """The number of panels of every integral."""
        return np.bincount(self.owner, minlength=self.live.size)

    def values(self) -> np.ndarray:
        """The value of every integral: the pairwise sum of its panels' values in the order they were made."""
        counts = self.counts()
        total = np.zeros(counts.size)
        made = counts > 0
        if made.any():
            starts = (np.cumsum(counts) - counts)[made]
            total[made] = np.add.reduceat(self.val[np.argsort(self.owner, kind="stable")], starts)
        return total

    def grid(self, which: np.ndarray, a: np.ndarray, b: np.ndarray, width: np.ndarray, min_panels: int = 8) -> None:
        """Evaluate equal panels from a[i] to b[i] on integral which[i], as `_panel_count` sets them.

        An integral whose grid alone would exceed the budget fails before
        the grid is built.
        """
        if not which.size:
            return
        n = _panel_count(a, b, width, min_panels)
        over = _GK15_X.size * n > _BUDGET
        if over.any():
            for i, count in zip(which[over], n[over]):
                self._fail(i, f"a grid of {count:.3g} panels would exceed the budget of {_BUDGET} evaluations")
            which, a, b, n = which[~over], a[~over], b[~over], n[~over]
        n = n.astype(np.intp)
        # panel j of n from a to b: [a + j step, a + (j + 1) step], ending on b, as np.linspace
        index = np.repeat(np.arange(which.size), n)
        j = np.arange(index.size) - (np.cumsum(n) - n)[index]
        a, b, step = a[index], b[index], ((b - a) / n)[index]
        self.add(which[index], j * step + a, np.where(j + 1 == n[index], b, (j + 1) * step + a))

    def add(self, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Evaluate the panels [lo[i], hi[i]] of integral owner[i]."""
        self._extend(None, owner, lo, hi)

    def _extend(self, keep: Optional[np.ndarray], owner: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Keep the current panels where `keep` is set (all of them if None) and evaluate the panels [lo, hi]."""
        need = _GK15_X.size * np.bincount(owner, minlength=self.live.size)
        for i in np.flatnonzero(self.live & (self.evaluations + need > _BUDGET)):
            self._fail(i, f"budget of {_BUDGET} evaluations exhausted")
        self.evaluations += need * self.live
        if not self.live.all():
            go = self.live[owner]
            owner, lo, hi = owner[go], lo[go], hi[go]
        kronrod, err = self._evaluate(owner, lo, hi)
        bad = ~np.isfinite(err)
        if bad.any():
            for i in np.flatnonzero(bad):
                if self.live[owner[i]]:
                    self._fail(owner[i], f"integrand not finite on the panel [{lo[i]:.6g}, {hi[i]:.6g}]")
        old = [self.owner, self.lo, self.hi, self.val, self.err]
        new = [owner, lo, hi, kronrod, err]
        if not self.live.all():
            # drop the panels of the integrals that failed
            alive = self.live[self.owner]
            keep = alive if keep is None else keep & alive
            new = [v[self.live[owner]] for v in new]
        if keep is not None:
            old = [v[keep] for v in old]
        self.owner, self.lo, self.hi, self.val, self.err = map(np.concatenate, zip(old, new))

    def _evaluate(self, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Kronrod sums of the panels [lo, hi] and their distances from the Gauss sums.

        The integrand is called on chunks of at most `_CHUNK` nodes; a
        non-finite value leaves a non-finite distance.
        """
        kronrod, err = np.empty(lo.size), np.empty(lo.size)
        per_call = _CHUNK // _GK15_X.size
        for start in range(0, lo.size, per_call):
            part = slice(start, start + per_call)
            half = 0.5 * (hi[part] - lo[part])
            # one row per node, one column per panel
            x = 0.5 * (lo[part] + hi[part]) + half * _GK15_X[:, None]
            # a non-finite value is refused by the caller, so its overflow warning is not shown
            with np.errstate(all="ignore"):
                fx = np.asarray(self.f(x, owner[part]), dtype=float)
                # node j's Kronrod and Gauss terms, summed over the nodes in ascending order
                terms = fx[:, None, :] * _GK15_W[:, :, None]
                sums = terms[0]
                for term in terms[1:]:
                    sums += term
                kronrod[part], gauss = sums * half
                err[part] = np.abs(kronrod[part] - gauss)
        return kronrod, err

    def refine(self, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
        """(`values`, error estimate) of every integral once each live estimate meets rel_tol.

        The tests sum an integral's panels in the order they were made.  An
        integral whose budget runs out first fails with NonConvergence; its
        entries are then meaningless.
        """
        size = self.live.size
        while True:
            total = np.bincount(self.owner, self.val, size)
            toterr = np.bincount(self.owner, self.err, size)
            target = rel_tol * np.maximum(np.abs(total), 1e-300)
            # roundoff floor: once panel values cancel down to machine noise,
            # further splitting cannot reduce the estimate (zero crossings of
            # oscillatory integrals); return the honest absolute error instead
            noise = 32.0 * _EPS * np.bincount(self.owner, np.abs(self.val), size)
            todo = self.live & ~(toterr <= np.maximum(target, noise))
            if not todo.any():
                return self.values(), toterr
            split = todo[self.owner] & (self.err > (target / np.maximum(self.counts(), 1))[self.owner])
            # an integral with no panel above its share splits its worst ones
            rest = todo.copy()
            rest[self.owner[split]] = False
            if rest.any():
                worst = np.zeros(size)
                np.maximum.at(worst, self.owner, self.err)
                split |= rest[self.owner] & (self.err == worst[self.owner])
            owner, ls, hs = self.owner[split], self.lo[split], self.hi[split]
            mids = 0.5 * (ls + hs)
            self._extend(
                ~split, np.concatenate([owner, owner]), np.concatenate([ls, mids]), np.concatenate([mids, hs])
            )


def _single(panels: _Panels, rel_tol: float) -> tuple[float, float, int, int]:
    """(value, error estimate, panels, evaluations) of the one integral of `panels`, refined to rel_tol.

    Raises its NonConvergence.
    """
    value, err = panels.refine(rel_tol)
    if panels.failed:
        raise panels.failed[0]
    return float(value[0]), float(err[0]), panels.lo.size, int(panels.evaluations[0])


def _one_grid(f: Callable[[np.ndarray, np.ndarray], np.ndarray], context: str,
              a: float, b: float, width: float, min_panels: int = 8) -> _Panels:
    """A panel engine of one integral, holding its first grid."""
    panels = _Panels(f, [context])
    panels.grid(np.zeros(1, dtype=np.intp), np.array([a]), np.array([b]), np.array([width]), min_panels)
    return panels


def _result(
    value: float, err: float, rel_tol: float, panels: int, evaluations: int,
    truncation_radius: Optional[float] = None, tail_bound: float = 0.0,
) -> QuadratureResult:
    return QuadratureResult(
        value, err, panels, err <= rel_tol * max(1.0, abs(value)), evaluations,
        truncation_radius, tail_bound,
    )


def _log_exp_poly_tail(m: int, alpha, r):
    """log of the exact integral_r^inf t^m e^(-alpha t) dt for integer m >= 0, elementwise.

    The integral is m!/alpha^(m+1) e^(-z) sum_{k<=m} z^k/k! with z = alpha r;
    its logarithm stays in range where the integral itself does not.  Each
    sum runs over k in ascending order.
    """
    z = alpha * r
    log_terms = np.zeros(np.shape(z) + (m + 1,))
    log_terms[..., 1:] = np.cumsum(np.log(z[..., None] / np.arange(1.0, m + 1)), axis=-1)
    top = log_terms.max(axis=-1)
    terms = np.cumsum(np.exp(log_terms - top[..., None]), axis=-1)[..., -1]
    return math.lgamma(m + 1) - (m + 1) * np.log(alpha) - z + top + np.log(terms)


def _radial_tail_bound(n: int, alpha, ks: Sequence, r):
    """Bound on the neglected tail of r^n e^(-ar) prod j_l(k_i r) beyond r; inf past the float range.

    alpha, r and each k are floats or arrays of one entry per integral.
    """
    alpha, r = np.asarray(alpha, dtype=float), np.asarray(r, dtype=float)
    log_bound = sum(np.log(_ENVELOPE / np.asarray(k, dtype=float)) for k in ks)
    m = n - len(ks)
    if m >= 0:
        log_bound = log_bound + _log_exp_poly_tail(m, alpha, r)
    else:
        log_bound = log_bound + (m * np.log(r) - alpha * r - np.log(alpha))
    return np.where(log_bound < _LOG_BOUND_MAX, np.exp(np.minimum(log_bound, _LOG_BOUND_MAX)), np.inf)[()]


def _radial_quadrature(
    n: int,
    alpha: np.ndarray,
    ks: Sequence[np.ndarray],
    ls: Sequence[int],
    rel_tol: float,
    contexts: Sequence[str],
) -> list[Union[QuadratureResult, NonConvergence]]:
    """Quadrature of integral_0^inf r^n e^(-alpha[i] r) prod_j j_ls[j](ks[j][i] r) dr for every i, in lockstep.

    Each integral picks a truncation radius from the analytic tail bound
    (scaled by a coarse pass), appends panels up to it, then refines the
    same panels, none wider than half its shortest oscillation period.
    Returns each integral's result, or the NonConvergence it stopped with.
    """
    size = alpha.size
    # past this radius r^n may overflow (r ~ 369 at n = 120) where r^n e^(-alpha r) does not
    r_overflow = math.exp(_LOG_BOUND_MAX / n) if n else math.inf

    def f(r: np.ndarray, owner: np.ndarray) -> np.ndarray:
        a = alpha[owner]
        out = r**n * np.exp(-a * r)
        if r.max() > r_overflow:
            big = ~np.isfinite(out)
            out[big] = np.exp(n * np.log(r[big]) - (a * r)[big])
        for l, k in zip(ls, ks):
            out = out * specfun.spherical_bessel_j_array(l, k[owner] * r)
        return out

    max_width = math.pi / np.maximum.reduce(ks)
    # the coarse pass reaches past the peak of r^n e^(-alpha r) at n/alpha
    with np.errstate(over="ignore"):
        r_end = np.maximum.reduce([40.0 / alpha, 2.0 * n / alpha, 6.0 * max_width,
                                   *[2.0 * (l + 1) / k for l, k in zip(ls, ks)]])
    panels = _Panels(f, contexts)
    panels.grid(np.arange(size), np.zeros(size), r_end, max_width)
    coarse, _ = panels.refine(1e-4)
    scale = np.maximum(np.abs(coarse), 1e-300)
    r_coarse = r_end.copy()
    # the radius of each integral grows until its tail bound, kept in `tail`, is small enough
    tail = np.zeros(size)
    grow = panels.live.copy()
    while grow.any():
        i = np.flatnonzero(grow)
        tail[i] = _radial_tail_bound(n, alpha[i], [k[i] for k in ks], r_end[i])
        short = tail[i] > 0.3 * rel_tol * scale[i]
        for j in i[short & (r_end[i] > 1e9)]:
            panels._fail(j, "truncation radius grew without bound")
        grow[i] = short & panels.live[i]
        r_end[grow] *= 1.5
    more = np.flatnonzero(panels.live & (r_end > r_coarse))
    panels.grid(more, r_coarse[more], r_end[more], max_width[more], min_panels=1)
    value, err = panels.refine(rel_tol)
    counts = panels.counts()
    return [
        panels.failed[i] if i in panels.failed else _result(
            float(value[i]), float(err[i] + tail[i]), rel_tol, int(counts[i]),
            int(panels.evaluations[i]), float(r_end[i]), float(tail[i]),
        )
        for i in range(size)
    ]


def _point_error(rel_tol: float, **values: float) -> Optional[ValueError]:
    """The ValueError a point raises: a value not positive and finite, else an unreachable rel_tol; or None."""
    try:
        _positive_finite(**values)
        _reachable_tolerance(rel_tol)
    except ValueError as exc:
        return exc
    return None


def _radial_batch(
    n: int, ls: Sequence[int], alpha: Sequence[float], ks: Sequence[Sequence[float]],
    errors: list[Optional[ValueError]], rel_tol: float, context: str,
) -> list[Outcome]:
    """`_radial_quadrature` at the points without an error, in one batch; the others keep their error."""
    outcomes: list[Outcome] = list(errors)
    ok = [i for i, e in enumerate(errors) if e is None]
    if ok:
        def pick(column):
            return np.array([column[i] for i in ok], dtype=float)

        found = _radial_quadrature(n, pick(alpha), [pick(k) for k in ks], ls, rel_tol, [context] * len(ok))
        for i, outcome in zip(ok, found):
            outcomes[i] = outcome
    return outcomes


def integrate_two_bessel_batch(
    n: int,
    lambda1: int,
    lambda2: int,
    k1: Sequence[float],
    k2: Sequence[float],
    alpha: Sequence[float],
    rel_tol: float = 1e-10,
) -> list[Outcome]:
    """`integrate_two_bessel` at the points (k1[i], k2[i], alpha[i]) of one order, in lockstep.

    Returns for each point exactly the QuadratureResult of
    `integrate_two_bessel(n, lambda1, lambda2, k1[i], k2[i], alpha[i], rel_tol)`,
    or the ValueError or NonConvergence it raises.  Raises only the errors
    of the order, as `integrate_two_bessel` does before it looks at a point.
    """
    lambda1 = _order("lambda1", lambda1, _L_MAX_BESSEL)
    lambda2 = _order("lambda2", lambda2, _L_MAX_BESSEL)
    n = _order("n", n, maximum=None)
    k1, k2, alpha = list(k1), list(k2), list(alpha)
    errors = [_point_error(rel_tol, k1=a, k2=b, alpha=c) for a, b, c in zip(k1, k2, alpha, strict=True)]
    return _radial_batch(
        n, (lambda1, lambda2), alpha, (k1, k2), errors, rel_tol,
        f"two-Bessel integral n={n} l=({lambda1},{lambda2})",
    )


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
    return _raised(*integrate_two_bessel_batch(n, lambda1, lambda2, [k1], [k2], [alpha], rel_tol))


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
    return _raised(*_radial_batch(
        lambda3 + offset, (lambda3,), [alpha], [[k3]], [_point_error(rel_tol, alpha=alpha, k3=k3)],
        rel_tol, f"single-Bessel transform l3={lambda3}",
    ))


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
    y = _above_one(y)
    _reachable_tolerance(rel_tol)
    ym1 = y - 1.0
    # u at x = -1: log((y + 1)/(y - 1)), whose quotient would round at large y
    u_top = math.log1p(2.0 / ym1)
    power = M + L

    def f(u: np.ndarray, owner: np.ndarray) -> np.ndarray:
        t = ym1 * np.expm1(u)          # 1 - x, exact where the peak sits
        one_minus_x2 = t * (2.0 - t)   # (1-x)(1+x) without cancellation at x=1
        np.clip(one_minus_x2, 0.0, None, out=one_minus_x2)
        return one_minus_x2**L * np.exp(-power * u)

    panels = _one_grid(f, "Q-definition integral", 0.0, u_top, u_top / max(8, L + 2))
    value, err, used, evaluations = _single(panels, rel_tol)
    scale = (
        math.factorial(M + L) / (math.factorial(M) * 2**L * math.factorial(L))
        * ym1 ** (-power)
    )
    return _result(scale * value, scale * err, rel_tol, used, evaluations)


def integrate_three_bessel_regularized(
    lambda1: int, lambda2: int, lambda3: int, k1: float, k2: float, k3: float
) -> QuadratureResult:
    """Triple-Bessel integral by damped quadrature extrapolated to zero damping.

    Computes integral r^2 e^(-eps r) j_l1(k1 r) j_l2(k2 r) j_l3(k3 r) dr
    for each eps of `_REGULARIZING_EPS`, in one batch, and
    Richardson-extrapolates to eps = 0; the extrapolation increments must
    decrease or NonConvergence is raised.  The result counts as converged
    within a relative 1e-3.
    """
    ls = _three_bessel_orders(lambda1, lambda2, lambda3, k1, k2, k3)
    eps, rel_tol = _REGULARIZING_EPS, 1e-3
    inner_tol = 1e-9
    parts = [_raised(q) for q in _radial_quadrature(
        2, np.array(eps), [np.full(len(eps), float(k)) for k in (k1, k2, k3)], ls, inner_tol,
        [f"regularized triple-Bessel eps={e}" for e in eps],
    )]
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

    def f(k3: np.ndarray, owner: np.ndarray) -> np.ndarray:
        delta = (k1 * k1 + k2 * k2 - k3 * k3) / two_k1k2
        np.clip(delta, -1.0, 1.0, out=delta)
        return k3 / (k3 * k3 + alpha * alpha) ** (lambda3 + 1) * specfun.legendre_p_all(l, delta)[l]

    panels = _one_grid(f, "wavenumber-kernel integral", lo, hi, (hi - lo) / max(8, l + 2))
    value, err, used, evaluations = _single(panels, rel_tol)
    return _result(value, err, rel_tol, used, evaluations)


def check_eq_2_12(l: int, L: int, y0: float, rel_tol: float = 1e-8) -> QuadratureResult:
    """Integral of R(l, L+1, y) over [y0, inf) for the derivative-order identity.

    The result should reproduce R(l, L, y0).  The range splits at
    B = max(2 y0, y0 + 3); the far part is compactified with
    y = 1 + (B-1)/t, whose integrand ~ t^(l+L) is smooth on (0, 1], so no
    explicit tail bound is needed.  The two parts are batches of one.
    """
    l, L = _order("l", l, _LAMBDA_MAX), _order("L", L, maximum=12)
    y0 = _above_one(y0)
    _reachable_tolerance(rel_tol)
    m = L + 1
    b_split = max(2.0 * y0, y0 + 3.0)
    # a panel's midpoint sums its ends, up to 2 B
    if not math.isfinite(2.0 * b_split):
        raise ValueError(f"y0 must be below 2^1022 (4.49e307) for the panels' float range, got {y0!r}")

    def f_near(y: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return specfun.paper_q_combination_all(l, m, y.ravel())[l].reshape(y.shape)

    def f_far(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
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
    near = _Panels(f_near, ["derivative-order identity"])
    near.add(np.zeros(n_panels, dtype=np.intp), edges[:-1], edges[1:])
    v_near, e_near, p_near, n_near = _single(near, rel_tol / 2)
    far = _one_grid(f_far, "derivative-order identity tail", 0.0, 1.0, 1.0 / 16)
    v_far, e_far, p_far, n_far = _single(far, rel_tol / 2)
    return _result(v_near + v_far, e_near + e_far, rel_tol, p_near + p_far, n_near + n_far)
