"""Acceptance suite: every shipping criterion at its pinned tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line.  Criteria 1-3,
5-9 and 12 run the `besselrad check` suites (`cli._SUITES`) at a pinned max-l
and tolerance, and pin each suite's case count; the grids and pass rules
are the suites'.  Their oracle comparisons measure |closed - oracle|
against tol * max(|closed|, |oracle|), plus, for the product and kernel
identities, three times the oracle's own reported uncertainty; the extra
term only matters at isolated zero crossings of the oscillatory integrals,
where a bare relative measure is ill-posed (the closed form cancels to
~1e-39 while any double-precision quadrature bottoms out near 1e-16).
"""

from besselrad import cli, closedform, oracle

K_GRID = (0.5, 1.0, 2.0)
ALPHA_GRID = (0.5, 1.0, 2.0)


def _report(number, name, failures, total):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({total - len(failures)}/{total} cases)")
    assert not failures, failures[:10]


def _check_suite(number, name, suite, max_l, tol, cases):
    """Run one `check` suite; every one of its `cases` cases must pass."""
    results = list(cli._SUITES[suite][0](max_l, tol))
    assert len(results) == cases
    _report(number, name, [(label, detail) for label, ok, detail in results if not ok], cases)


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
    # 162 closed-form cases, 27 of them at L = 0 also against the elementary form
    _check_suite(1, "equal-order closed form vs oracle", "eq29", 5, 1e-8, 162 + 27)


def test_criterion_02_main_product_power_plus_one():
    _check_suite(2, "power l3+1 product vs 3j-weighted oracle", "eq28", 4, 1e-7, 1485)


def test_criterion_03_product_power_plus_two():
    _check_suite(3, "power l3+2 product vs 3j-weighted oracle", "eq211", 4, 1e-7, 1485)


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
    # 5 orders x 4 wavenumber triples, and the oracle's pi/4 at l = (0, 0, 0), k = (1, 1, 1)
    _check_suite(5, "triple-Bessel closed form vs regularized oracle", "eq21", 4, 1e-3, 20 + 1)


def test_criterion_06_q_machinery():
    _check_suite(6, "Q combination vs defining-integral oracle", "qfunc", 4, 1e-9, 385)


def test_criterion_07_derivative_order_identity():
    _check_suite(7, "derivative-order integral identity", "eq212", 4, 1e-6, 105)


def test_criterion_08_kernel_identity():
    _check_suite(8, "wavenumber-kernel integral identity", "eq26", 4, 1e-7, 675)


def test_criterion_09_wigner_exactness():
    # orthogonality for j1, j2 <= 5; the 3j symmetries, and 7 6j comparisons per symbol, for j <= 4
    _check_suite(9, "exact Wigner orthogonality and symmetries", "wigner", 4, 0.0, 114573)


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


def test_criterion_12_hankel_route():
    # the double sum against the Hankel route at every order with l1, l2 <= 10 (so l3 <= 20)
    # at three points with y - 1 from 0.011 to 0.045, where neither keeps fewer than 14 digits
    _check_suite(12, "Hankel route vs double sum near y = 1", "hankel", 10, 1e-10, 2069)
