"""Acceptance suite: every shipping criterion at its pinned tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line.  Oracle-based
comparisons measure |closed - oracle| against tol * max(|closed|, |oracle|)
plus three times the oracle's own reported uncertainty; the extra term only
matters at isolated zero crossings of the oscillatory integrals, where a
bare relative measure is ill-posed (the closed form cancels to ~1e-39 while
any double-precision quadrature bottoms out near 1e-16).
"""

import math
from itertools import permutations

import pytest

from besselrad import closedform, oracle, specfun, wigner
from besselrad.wigner import AngularMomenta3j, _orthogonality_defect

K_GRID = (0.5, 1.0, 2.0)
ALPHA_GRID = (0.5, 1.0, 2.0)


def _report(number, name, failures, total):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({total - len(failures)}/{total} cases)")
    assert not failures, failures[:10]


def _grid():
    for k1 in K_GRID:
        for k2 in K_GRID:
            for alpha in ALPHA_GRID:
                yield k1, k2, alpha


def _lambda_triples(lmax=4, l3max=8):
    for l1 in range(lmax + 1):
        for l2 in range(lmax + 1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, l3max) + 1):
                if (l1 + l2 + l3) % 2 == 0:
                    yield l1, l2, l3


def test_criterion_01_equal_order():
    failures = []
    total = 0
    for L in range(6):
        for k1, k2, alpha in _grid():
            total += 1
            cf = closedform.two_bessel_equal_order(L, k1, k2, alpha).value
            q = oracle.integrate_two_bessel(1, L, L, k1, k2, alpha, 1e-10)
            rel = abs(cf - q.value) / max(abs(cf), abs(q.value))
            if rel > 1e-8:
                failures.append((L, k1, k2, alpha, rel))
            if L == 0:
                elem = 0.25 * math.log(
                    ((k1 + k2) ** 2 + alpha**2) / ((k1 - k2) ** 2 + alpha**2)
                ) / (k1 * k2)
                if abs(cf - elem) / abs(elem) > 1e-12:
                    failures.append(("elementary", k1, k2, alpha))
    assert total == 162
    _report(1, "equal-order closed form vs oracle", failures, total)


def _run_product_criterion(offset):
    failures = []
    total = 0
    for l1, l2, l3 in _lambda_triples():
        w3 = float(wigner.wigner_3j(AngularMomenta3j(l1, l2, l3, 0, 0, 0)))
        for k1, k2, alpha in _grid():
            total += 1
            cf = closedform.two_bessel_product(l1, l2, l3, k1, k2, alpha, offset).value
            q = oracle.integrate_two_bessel(l3 + offset, l1, l2, k1, k2, alpha, 1e-9)
            lhs = w3 * q.value
            tol = 1e-7 * max(abs(cf), abs(lhs)) + 3.0 * abs(w3) * q.abs_error_estimate
            if abs(cf - lhs) > tol:
                failures.append((l1, l2, l3, k1, k2, alpha, cf, lhs))
    return failures, total


def test_criterion_02_main_product_power_plus_one():
    failures, total = _run_product_criterion(1)
    _report(2, "power l3+1 product vs 3j-weighted oracle", failures, total)


def test_criterion_03_product_power_plus_two():
    failures, total = _run_product_criterion(2)
    _report(3, "power l3+2 product vs 3j-weighted oracle", failures, total)


def test_criterion_04_single_bessel_transforms():
    failures = []
    total = 0
    for lambda3 in range(7):
        for k3 in K_GRID:
            for alpha in ALPHA_GRID:
                for offset in (1, 2):
                    total += 1
                    cf = closedform.laplace_single_bessel(lambda3, alpha, k3, offset)
                    q = oracle.integrate_single_bessel(lambda3, alpha, k3, offset, 1e-12)
                    rel = abs(cf - q.value) / max(abs(cf), abs(q.value))
                    if rel > 1e-10:
                        failures.append((lambda3, k3, alpha, offset, rel))
    _report(4, "single-Bessel transforms vs oracle", failures, total)


def test_criterion_05_three_bessel():
    failures = []
    total = 0
    lambdas = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 2), (2, 2, 2))
    ktriples = ((1.0, 1.0, 1.0), (1.0, 2.0, 2.5), (0.5, 1.0, 1.2), (1.0, 1.0, 3.0))
    for l1, l2, l3 in lambdas:
        for k1, k2, k3 in ktriples:
            total += 1
            spec = (l1, l2, l3, k1, k2, k3)
            cf = closedform.three_bessel_product(*spec)
            w3 = float(wigner.wigner_3j(AngularMomenta3j(l1, l2, l3, 0, 0, 0)))
            q = oracle.integrate_three_bessel_regularized(*spec)
            if abs(cf - w3 * q.value) > 1e-3 * max(1.0, abs(cf), abs(w3 * q.value)):
                failures.append((l1, l2, l3, k1, k2, k3))
    # pinned spot value
    total += 1
    q = oracle.integrate_three_bessel_regularized(0, 0, 0, 1.0, 1.0, 1.0)
    if abs(q.value - math.pi / 4) > 1e-3:
        failures.append(("pi/4 spot", q.value))
    _report(5, "triple-Bessel closed form vs regularized oracle", failures, total)


def test_criterion_06_q_machinery():
    failures = []
    total = 0
    for y in (1.01, 1.5, 2.0, 10.0, 100.0):
        for M in range(7):
            for L in range(11):
                total += 1
                q = oracle.integrate_q_definition(L, M, y, 1e-11)
                lhs = math.factorial(M) / 2.0 * q.value
                target = specfun.paper_q_combination(L, M, y)
                rel = abs(lhs - target) / max(abs(lhs), abs(target))
                if rel > 1e-9:
                    failures.append((L, M, y, rel))
    _report(6, "Q combination vs defining-integral oracle", failures, total)


def test_criterion_07_derivative_order_identity():
    failures = []
    total = 0
    for l in range(7):
        for L in range(5):
            for y0 in (1.1, 1.5, 3.0):
                total += 1
                q = oracle.check_eq_2_12(l, L, y0, 1e-8)
                target = specfun.paper_q_combination(l, L, y0)
                rel = abs(q.value - target) / max(abs(q.value), abs(target))
                if rel > 1e-6:
                    failures.append((l, L, y0, rel))
    _report(7, "derivative-order integral identity", failures, total)


def test_criterion_08_kernel_identity():
    failures = []
    total = 0
    for l in range(5):
        for lambda3 in range(5):
            for k1, k2, alpha in _grid():
                total += 1
                q = oracle.check_eq_2_6(l, lambda3, k1, k2, alpha, 1e-9)
                y = closedform.y_param(k1, k2, alpha)
                rhs = specfun.paper_q_combination(l, lambda3, y) / (
                    (2.0 * k1 * k2) ** lambda3 * math.factorial(lambda3)
                )
                tol = 1e-7 * max(abs(q.value), abs(rhs)) + 3.0 * q.abs_error_estimate
                if abs(q.value - rhs) > tol:
                    failures.append((l, lambda3, k1, k2, alpha))
    _report(8, "wavenumber-kernel integral identity", failures, total)


def test_criterion_09_wigner_exactness():
    failures = []
    total = 0
    # orthogonality, exact rational arithmetic, zero tolerance
    for j1 in range(6):
        for j2 in range(6):
            lo, hi = abs(j1 - j2), j1 + j2
            for j3 in range(lo, hi + 1):
                for j3p in range(j3, hi + 1):
                    for m3 in range(-min(j3, j3p), min(j3, j3p) + 1):
                        total += 1
                        if _orthogonality_defect(j1, j2, j3, m3, j3p, m3) != 0:
                            failures.append(("orth", j1, j2, j3, j3p, m3))
    # 3j column symmetries
    for j1 in range(5):
        for j2 in range(5):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 4) + 1):
                phase = -1 if (j1 + j2 + j3) % 2 else 1
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -m1 - m2
                        if abs(m3) > j3:
                            continue
                        total += 1
                        base = wigner.wigner_3j(AngularMomenta3j(j1, j2, j3, m1, m2, m3))
                        even = wigner.wigner_3j(AngularMomenta3j(j3, j1, j2, m3, m1, m2))
                        odd = wigner.wigner_3j(AngularMomenta3j(j2, j1, j3, m2, m1, m3))
                        ok = (
                            even == base
                            and odd.radicand == base.radicand
                            and odd.sign == phase * base.sign
                        )
                        if not ok:
                            failures.append(("3j-sym", j1, j2, j3, m1, m2))
    # 6j tetrahedral symmetries
    for j1 in range(5):
        for j2 in range(5):
            for j3 in range(5):
                for j4 in range(5):
                    for j5 in range(5):
                        for j6 in range(5):
                            base = wigner.wigner_6j(j1, j2, j3, j4, j5, j6)
                            cols = [(j1, j4), (j2, j5), (j3, j6)]
                            for perm in permutations(cols):
                                total += 1
                                tops = tuple(c[0] for c in perm)
                                bots = tuple(c[1] for c in perm)
                                if wigner.wigner_6j(*tops, *bots) != base:
                                    failures.append(("6j-col", j1, j2, j3, j4, j5, j6))
                            total += 1
                            if wigner.wigner_6j(j4, j5, j3, j1, j2, j6) != base:
                                failures.append(("6j-swap", j1, j2, j3, j4, j5, j6))
    _report(9, "exact Wigner orthogonality and symmetries", failures, total)


def test_criterion_10_singularity_behavior():
    failures = []
    total = 0
    values = []
    for alpha in (0.1, 0.03, 0.01):
        total += 1
        res = closedform.bare_integral(2, 0, 1, 1.0, 1.0, alpha)
        q = oracle.integrate_two_bessel(2, 0, 1, 1.0, 1.0, alpha, 1e-7)
        rel = abs(res.value - q.value) / max(abs(res.value), abs(q.value))
        cond_exact = 2.0 * 1.0 * 1.0 / alpha**2
        if rel > 1e-4:
            failures.append((alpha, "oracle", rel))
        if abs(res.condition - cond_exact) / cond_exact > 1e-12:
            failures.append((alpha, "condition"))
        values.append(res.value)
    total += 1
    if not (values[0] < values[1] < values[2]):
        failures.append(("monotone growth", values))
    _report(10, "near-singularity behavior and condition field", failures, total)


def test_criterion_11_swap_symmetry():
    failures = []
    total = 0
    for l1, l2, l3 in _lambda_triples():
        for k1, k2, alpha in _grid():
            total += 1
            a = closedform.bare_integral(l3 + 1, l1, l2, k1, k2, alpha).value
            b = closedform.bare_integral(l3 + 1, l2, l1, k2, k1, alpha).value
            if abs(a - b) > 1e-12 * max(abs(a), abs(b), 1e-300):
                failures.append((l1, l2, l3, k1, k2, alpha, a, b))
    _report(11, "swap symmetry of the bare integral", failures, total)
