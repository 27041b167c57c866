"""High-precision reference values for the benchmark's workload points.

Independent of the package under test: nothing here imports `besselrad`.
Each bare integral

    I(n; l1, l2; k1, k2, a) = integral_0^inf r^n e^(-a r) j_l1(k1 r) j_l2(k2 r) dr

is evaluated from the paper's finite sum with sympy's exact Wigner 3j/6j
symbols and mpmath arithmetic at 100 or more significant digits.  The
derivatives R(l, M, y) = (-1)^M d^M Q_l/dy^M come from the Taylor series of
Q_l about y, built from the exact series of Q_0 = atanh(1/y) =
(1/2) ln((y+1)/(y-1)) and the three-term recurrence in l.  Each value is
computed at two working precisions and accepted only when both agree to
more than 100 digits; otherwise the precision is raised.

Where direct mpmath quadrature of the radial integral converges (moderate
damping), `quadrature_value` gives a second, formula-free route; the
reference command requires the two routes to agree on a sample of points.

Command line, regenerating the stored reference of one workload and seed:

    python3 perfbench/reference.py --workload sweep_far --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
from mpmath import mpf

DIGITS = 100          # significant digits every reference value carries
STORED_DIGITS = 40    # digits written to the stored reference
QUAD_DPS = 30         # working precision of the quadrature cross-check
QUAD_POINTS = 2       # points per workload and seed cross-checked by quadrature
QUAD_MIN_ALPHA = 0.5  # quadrature is only attempted at this damping or more


class ReferenceMismatch(Exception):
    """The finite sum and the direct quadrature disagree."""


def route(l1: int, l2: int, n: int):
    """(l3, offset) of the closed form for power n, or None when there is none.

    Parity selects l3 = n - 1 (power l3 + 1) when l1 + l2 + n - 1 is even and
    l3 = n - 2 (power l3 + 2) otherwise; the selected l3 must satisfy the
    triangle rule with l1 and l2, or the 3j weight vanishes.
    """
    if (l1 + l2 + n - 1) % 2 == 0:
        l3, offset = n - 1, 1
    elif n >= 2:
        l3, offset = n - 2, 2
    else:
        return None
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return None
    return l3, offset


def _signed_square(expr) -> tuple[int, Fraction]:
    """A sympy value s * sqrt(r), r rational, as (s, r), exactly."""
    if expr == 0:
        return 0, Fraction(0)
    sq = expr**2
    return (1 if expr > 0 else -1), Fraction(int(sq.p), int(sq.q))


@lru_cache(maxsize=None)
def _threej_000(l1: int, l2: int, l3: int) -> tuple[int, Fraction]:
    from sympy.physics.wigner import wigner_3j

    return _signed_square(wigner_3j(l1, l2, l3, 0, 0, 0))


def _sixj(*js: int) -> tuple[int, Fraction]:
    from sympy.physics.wigner import wigner_6j

    return _signed_square(wigner_6j(*js))


_COUPLINGS: dict[tuple[int, int, int], tuple] = {}


def _coupling(l1: int, l2: int, l3: int) -> tuple:
    """Exact (scr, l, sign, num, den) of every nonzero term of the finite sum.

    The weight of term (scr, l) is
    sqrt(C(2 l3, 2 scr)) (2l + 1) 3j(l1 l3-scr l; 000) 3j(l2 scr l; 000)
    6j{l1 l2 l3; scr l3-scr l} = sign * sqrt(num/den).  Memoized, and
    kept on disk by `load_couplings` and `save_couplings`: the sympy symbols
    of a large order scan take seconds.
    """
    key = (l1, l2, l3)
    if key in _COUPLINGS:
        return _COUPLINGS[key]
    terms = []
    for scr in range(l3 + 1):
        for l in range(abs(l2 - scr), l2 + scr + 1):
            sa, ra = _threej_000(l1, l3 - scr, l)
            sb, rb = _threej_000(l2, scr, l)
            if sa == 0 or sb == 0:
                continue
            sc, rc = _sixj(l1, l2, l3, scr, l3 - scr, l)
            if sc == 0:
                continue
            rad = ra * rb * rc * math.comb(2 * l3, 2 * scr) * (2 * l + 1) ** 2
            terms.append((scr, l, sa * sb * sc, rad.numerator, rad.denominator))
    _COUPLINGS[key] = tuple(terms)
    return _COUPLINGS[key]


def load_couplings(path: Path) -> None:
    """Memoize the couplings stored at `path`, if any."""
    if path.exists():
        for key, terms in json.loads(path.read_text(encoding="utf-8")).items():
            _COUPLINGS[tuple(int(v) for v in key.split(","))] = tuple(tuple(t) for t in terms)


def save_couplings(path: Path) -> None:
    """Store every memoized coupling at `path`."""
    data = {",".join(map(str, key)): terms for key, terms in _COUPLINGS.items()}
    _write_json(path, data)


def q_derivative_table(lmax: int, mmax: int, ym1, yp1) -> list:
    """R(l, M, y) for l = 0..lmax and M = 0..mmax at the current mpmath precision.

    `ym1` = y - 1 and `yp1` = y + 1 are passed separately so that y - 1 keeps
    all its digits near the singularity.  Row l holds the Taylor series of
    Q_l about y in t = y' - y, truncated after t^mmax, scaled so that entry M
    is (-1)^M d^M Q_l/dy^M.
    """
    y = ym1 + 1
    q0 = [(mpmath.log(yp1) - mpmath.log(ym1)) / 2]
    for j in range(1, mmax + 1):
        sgn = 1 if j % 2 else -1
        q0.append(sgn * (yp1 ** (-j) - ym1 ** (-j)) / (2 * j))

    def times_y(s):
        return [y * s[0]] + [y * s[j] + s[j - 1] for j in range(1, mmax + 1)]

    series = [q0]
    if lmax >= 1:
        q1 = times_y(q0)
        q1[0] -= 1
        series.append(q1)
    for l in range(1, lmax):
        ys = times_y(series[l])
        prev = series[l - 1]
        series.append([((2 * l + 1) * ys[j] - l * prev[j]) / (l + 1) for j in range(mmax + 1)])
    scale = [(-1 if j % 2 else 1) * mpmath.factorial(j) for j in range(mmax + 1)]
    return [[scale[j] * s[j] for j in range(mmax + 1)] for s in series]


def _needs(l1: int, l2: int, n: int) -> tuple[int, int]:
    """(largest l, derivative order M) the finite sum of a closed-form point reads."""
    l3, offset = route(l1, l2, n)
    return max(t[1] for t in _coupling(l1, l2, l3)), l3 + offset - 1


def _bare_at(l1: int, l2: int, n: int, k1, k2, a, rtab):
    """The bare integral from the finite sum at the current precision."""
    l3, offset = route(l1, l2, n)
    m_order = l3 + offset - 1
    ratio = k2 / k1
    total = mpmath.fsum(
        sign * mpmath.sqrt(mpf(num) / den) * ratio**scr * rtab[l][m_order]
        for scr, l, sign, num, den in _coupling(l1, l2, l3)
    )
    phase = -1 if ((l1 + l2 - l3) // 2) % 2 else 1
    if offset == 1:
        pref = 1 / (2 * k1 * k2 ** (l3 + 1))
    else:
        pref = a / (2 * k1 * k1 * k2 ** (l3 + 2))
    s3, r3 = _threej_000(l1, l2, l3)
    w3 = s3 * mpmath.sqrt(mpf(r3.numerator) / r3.denominator)
    return phase * mpmath.sqrt(2 * l3 + 1) * pref * total / w3


def _group_values(orders, k1: float, k2: float, alpha: float, dps: int) -> list:
    """Finite-sum values of several orders (l1, l2, n) at one (k1, k2, alpha)."""
    lmax = max(_needs(*o)[0] for o in orders)
    mmax = max(_needs(*o)[1] for o in orders)
    with mpmath.workdps(dps):
        k1m, k2m, am = mpf(k1), mpf(k2), mpf(alpha)
        two_k1k2 = 2 * k1m * k2m
        ym1 = ((k1m - k2m) ** 2 + am * am) / two_k1k2
        yp1 = ((k1m + k2m) ** 2 + am * am) / two_k1k2
        rtab = q_derivative_table(lmax, mmax, ym1, yp1)
        return [_bare_at(l1, l2, n, k1m, k2m, am, rtab) for l1, l2, n in orders]


def bare_integrals(orders, k1: float, k2: float, alpha: float) -> list:
    """I(n; l1, l2; k1, k2, alpha) for each order (l1, l2, n), or None with no closed form.

    The float arguments are taken as exact binary values.  Every value is
    computed at two working precisions 30 digits apart and returned (as an
    mpf of the higher one) once both agree to DIGITS + 5 digits; orders
    that disagree are recomputed at twice the precision.
    """
    out = [None] * len(orders)
    todo = [i for i, (l1, l2, n) in enumerate(orders) if route(l1, l2, n) is not None]
    if not todo:
        return out
    # the forward recurrence in l loses about 2 l log10(y + sqrt(y^2 - 1))
    # digits; the Wigner-weighted sum's own cancellation is found by comparison
    y = (k1 * k1 + k2 * k2 + alpha * alpha) / (2.0 * k1 * k2)
    growth = math.log10(y + math.sqrt(max(y * y - 1.0, 0.0)))
    lmax = max(_needs(*orders[i])[0] for i in todo)
    dps = DIGITS + 20 + int(2 * (lmax + 1) * growth)
    while todo:
        subset = [orders[i] for i in todo]
        lo = _group_values(subset, k1, k2, alpha, dps)
        hi = _group_values(subset, k1, k2, alpha, dps + 30)
        retry = []
        with mpmath.workdps(dps + 30):
            for i, a, b in zip(todo, lo, hi):
                if b != 0 and abs(b - a) <= abs(b) * mpf(10) ** (-(DIGITS + 5)):
                    out[i] = b
                else:
                    retry.append(i)
        todo = retry
        dps *= 2
    return out


def bare_integral(n: int, l1: int, l2: int, k1: float, k2: float, alpha: float):
    """I(n; l1, l2; k1, k2, alpha) to at least DIGITS digits, or None with no closed form."""
    return bare_integrals([(l1, l2, n)], k1, k2, alpha)[0]


def _spherical_j(l: int, x):
    if x == 0:
        return mpf(1) if l == 0 else mpf(0)
    return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(l + mpf(1) / 2, x)


def quadrature_value(n: int, l1: int, l2: int, k1: float, k2: float, alpha: float, scale):
    """Direct mpmath quadrature of the radial integral, or None if it does not converge.

    The range is cut where the tail bound r^(n-2) e^(-a r) / (a k1 k2) falls
    below 10^-(QUAD_DPS - 5) of `scale` and split at every half period of
    the faster Bessel factor.  Returns (value, error estimate plus tail bound).
    """
    if alpha < QUAD_MIN_ALPHA:
        return None
    with mpmath.workdps(QUAD_DPS):
        k1m, k2m, am = mpf(k1), mpf(k2), mpf(alpha)

        def f(r):
            return r**n * mpmath.exp(-am * r) * _spherical_j(l1, k1m * r) * _spherical_j(l2, k2m * r)

        def tail(r):
            return r ** (n - 2) * mpmath.exp(-am * r) / (am * k1m * k2m)

        target = abs(mpf(scale)) * mpf(10) ** (-(QUAD_DPS - 5))
        r_end = mpf(10)
        while tail(r_end) > target:
            r_end *= mpf("1.25")
        step = mpmath.pi / max(k1m, k2m)
        pieces = int(r_end / step) + 1
        if pieces > 400:
            return None
        points = [step * i for i in range(pieces)] + [r_end]
        value, err = mpmath.quad(f, points, error=True, method="gauss-legendre")
        if err > abs(value) * mpf(10) ** (-(QUAD_DPS - 10)):
            return None
        return value, err + tail(r_end)


def check_by_quadrature(n, l1, l2, k1, k2, alpha, value) -> bool:
    """Compare a finite-sum value with the quadrature; False if quadrature does not apply.

    Raises ReferenceMismatch when both routes give values that disagree.
    """
    q = quadrature_value(n, l1, l2, k1, k2, alpha, value)
    if q is None:
        return False
    qv, qerr = q
    with mpmath.workdps(QUAD_DPS):
        limit = abs(value) * mpf(10) ** (-(QUAD_DPS - 12)) + 10 * qerr
        if abs(qv - value) > limit:
            raise ReferenceMismatch(
                f"finite sum {mpmath.nstr(value, 25)} vs quadrature {mpmath.nstr(qv, 25)} "
                f"at n={n} l=({l1},{l2}) k=({k1!r},{k2!r}) alpha={alpha!r}"
            )
    return True


def compute(points) -> tuple[list, int]:
    """Reference strings (None for no closed form) for (l1, l2, n, k1, k2, alpha) points.

    Points sharing (k1, k2, alpha) share one table of Q derivatives.  Up to
    QUAD_POINTS points are also cross-checked by quadrature; returns the
    values and how many points were cross-checked.
    """
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(tuple(p[3:]), []).append(i)
    exact = [None] * len(points)
    for (k1, k2, alpha), idx in groups.items():
        vals = bare_integrals([tuple(points[i][:3]) for i in idx], k1, k2, alpha)
        for i, v in zip(idx, vals):
            exact[i] = v
    quad_checked = 0
    for p, v in zip(points, exact):
        if quad_checked == QUAD_POINTS:
            break
        if v is not None:
            l1, l2, n, k1, k2, alpha = p
            quad_checked += check_by_quadrature(n, l1, l2, k1, k2, alpha, v)
    values = [None if v is None else mpmath.nstr(v, STORED_DIGITS, strip_zeros=False) for v in exact]
    return values, quad_checked


def _cache_dir() -> Path:
    return Path(__file__).resolve().parent / "_cache"


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data), encoding="utf-8")
    tmp.replace(path)


def cache_path(workload: str, seed: int) -> Path:
    import workloads

    return _cache_dir() / f"ref-{workload}-{seed}-{workloads.fingerprint()}.json"


def regenerate(workload: str, seed: int) -> dict:
    """Compute and store the reference of one workload and seed."""
    import workloads

    own = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    couplings = _cache_dir() / f"couplings-{own}.json"
    load_couplings(couplings)
    known = len(_COUPLINGS)
    points = workloads.distinct_points(workloads.build(workload, seed))
    values, quad_checked = compute(points)
    if len(_COUPLINGS) > known:
        save_couplings(couplings)
    record = {
        "workload": workload,
        "seed": seed,
        "digits": DIGITS,
        "quadrature_checked": quad_checked,
        "points": [list(p) for p in points],
        "values": values,
    }
    _write_json(cache_path(workload, seed), record)
    return record


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    record = regenerate(args.workload, args.seed)
    print(f"{len(record['points'])} points, {record['quadrature_checked']} checked by quadrature, "
          f"written to {cache_path(args.workload, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
