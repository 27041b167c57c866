"""Tests of the benchmark's checker, reference and workload definitions.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import mpmath
import pytest

import check
import reference
import run
import workloads
from worker import run_commands

ROOT = Path(__file__).resolve().parent.parent


def _csv(rows, oracle=False):
    header = check.ORACLE_COLUMNS if oracle else check.COLUMNS
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _row(point, value, method="EQ_2_8", oracle_value=None):
    l1, l2, n, k1, k2, alpha = point
    cells = [str(l1), str(l2), str(n), repr(k1), repr(k2), repr(alpha), value, method, "1.5"]
    if oracle_value is not None:
        cells += [oracle_value, "0"]
    return cells


@pytest.fixture(scope="module")
def sweep():
    """A small closed-form command, its points and their reference."""
    cmd = workloads.Command(
        {"lambda1": 1, "lambda2": 1, "power": 3, "k1": 1.0},
        [("k2", 0.3, 0.35, 2), ("alpha", 0.5, 1.0, 2)],
    )
    points = cmd.points()
    values, _ = reference.compute(points)
    record = {"points": points, "values": values}
    return cmd, points, check.reference_map(record)


def _exact(ref, p):
    return repr(ref[p][0])


def test_exact_rows_pass_with_full_digits(sweep):
    _, points, ref = sweep
    tally = check.Tally()
    text = _csv([_row(p, _exact(ref, p)) for p in points])
    check.check_command(points, None, None, {"rc": 0, "error": None}, text, ref, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (4, 0, [])
    assert tally.digits_mean >= 15.9


def test_value_perturbed_by_1e_6_fails(sweep):
    _, points, ref = sweep
    rows = [_row(p, _exact(ref, p)) for p in points]
    rows[2][6] = repr(ref[points[2]][0] * (1 + 1e-6))
    tally = check.Tally()
    check.check_command(points, None, None, {"rc": 0, "error": None}, _csv(rows), ref, tally)
    assert tally.failed == 1
    assert len(tally.unexpected) == 1 and "relative error" in tally.unexpected[0]
    # a failed row counts as 0 digits in the mean
    assert tally.digit_rows == 4 and tally.digits_mean < 0.76 * 16


def test_na_where_a_closed_form_exists_fails(sweep):
    _, points, ref = sweep
    rows = [_row(p, _exact(ref, p)) for p in points]
    rows[0][6], rows[0][7] = "NA", "NA"
    tally = check.Tally()
    check.check_command(points, None, None, {"rc": 0, "error": None}, _csv(rows), ref, tally)
    assert tally.failed == 1 and "NA where" in tally.unexpected[0]


def test_value_where_parity_and_triangle_give_none_fails():
    # n = 1 selects l3 = 0, which violates the triangle rule for (2, 0)
    point = (2, 0, 1, 1.0, 2.0, 0.5)
    assert reference.route(2, 0, 1) is None
    ref = {point: None}
    tally = check.Tally()
    check.check_command([point], None, None, {"rc": 0, "error": None},
                        _csv([_row(point, "0.25", "EQ_2_8")]), ref, tally)
    assert tally.failed == 1
    tally = check.Tally()
    check.check_command([point], None, None, {"rc": 0, "error": None},
                        _csv([_row(point, "NA", "NA")]), ref, tally)
    # a correct refusal passes and is left out of the digits mean
    assert (tally.attempted, tally.failed, tally.digit_rows) == (1, 0, 0)


def test_oracle_column_is_checked_against_rel_tol(sweep):
    _, points, ref = sweep
    tol = workloads.ORACLE_REL_TOL
    good = [_row(p, _exact(ref, p), oracle_value=repr(ref[p][0] * (1 + tol))) for p in points]
    bad = [list(r) for r in good]
    bad[1][9] = repr(ref[points[1]][0] * (1 + 100 * tol))
    for rows, failed in ((good, 0), (bad, 1)):
        tally = check.Tally()
        check.check_command(points, tol, None, {"rc": 0, "error": None}, _csv(rows, oracle=True), ref, tally)
        assert tally.failed == failed


def test_raised_exception_fails_its_rows_and_the_run_goes_on(sweep):
    _, points, ref = sweep

    def main(argv):
        if argv[0] == "boom":
            raise ZeroDivisionError("float division by zero")
        return 0

    records = run_commands([["boom"], ["table"]], main)
    assert records[0]["error"].startswith("ZeroDivisionError") and records[0]["rc"] is None
    assert records[1] == {"rc": 0, "error": None, "seconds": records[1]["seconds"]}
    tally = check.Tally()
    check.check_command(points, None, "known_fault", records[0], None, ref, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (4, 4, [])
    check.check_command(points, None, None, records[0], None, ref, tally)
    assert tally.failed == 8 and len(tally.unexpected) == 4


@pytest.mark.parametrize("k1,k2,alpha", [(1.0, 2.0, 0.5), (0.7, 0.7, 0.3), (2.0, 0.5, 1.5)])
def test_reference_matches_elementary_q0(k1, k2, alpha):
    # I(1; 0, 0) = Q_0(y) / (2 k1 k2) = ln(((k1+k2)^2 + a^2) / ((k1-k2)^2 + a^2)) / (4 k1 k2)
    value = reference.bare_integral(1, 0, 0, k1, k2, alpha)
    with mpmath.workdps(120):
        k1m, k2m, am = mpmath.mpf(k1), mpmath.mpf(k2), mpmath.mpf(alpha)
        exact = mpmath.log(((k1m + k2m) ** 2 + am**2) / ((k1m - k2m) ** 2 + am**2)) / (4 * k1m * k2m)
        assert abs(value - exact) <= abs(exact) * mpmath.mpf(10) ** -reference.DIGITS


def test_q_derivatives_match_mpmath_differentiation():
    with mpmath.workdps(40):
        y = mpmath.mpf("1.3")
        table = reference.q_derivative_table(5, 3, y - 1, y + 1)
        for l in (0, 3, 5):
            d = mpmath.diff(lambda t: mpmath.re(mpmath.legenq(l, 0, t, type=3)), y, 3)
            assert abs(-d - table[l][3]) <= abs(d) * mpmath.mpf(10) ** -30


def test_finite_sum_agrees_with_direct_quadrature():
    value = reference.bare_integral(3, 1, 2, 1.0, 1.7, 0.8)
    assert reference.check_by_quadrature(3, 1, 2, 1.0, 1.7, 0.8, value)
    with pytest.raises(reference.ReferenceMismatch):
        reference.check_by_quadrature(3, 1, 2, 1.0, 1.7, 0.8, value * (1 + 1e-12))


def test_points_follow_the_cli_row_order(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from besselrad import cli

    cmd = workloads.Command(
        {"lambda2": 2, "k1": 1.0, "alpha": 0.7},
        [("lambda1", 0, 3, 4), ("power", 1, 4, 4), ("k2", 0.5, 2.5, 3)],
    )
    out = tmp_path / "t.csv"
    assert cli.main(cmd.argv(str(out))) == 0
    rows = out.read_text().splitlines()[1:]
    got = [(int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]), float(r[5]))
           for r in (line.split(",") for line in rows)]
    assert got == cmd.points()


def test_workloads_are_seeded():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert [c.points() for c in a] == [c.points() for c in b]
        c = workloads.build(name, 8)
        assert [x.points() for x in a] != [x.points() for x in c]
        # the same number of rows and the same known faults for every seed
        assert sum(len(x.points()) for x in a) == sum(len(x.points()) for x in c)
        assert [x.fault for x in a] == [x.fault for x in c]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
