import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from besselrad import cli, closedform, oracle, specfun, wigner

LOG5_OVER_4 = 0.25 * math.log(5.0)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


BASE_EVAL = [
    "eval", "--lambda1", "0", "--lambda2", "0", "--power", "1",
    "--k1", "1", "--k2", "1", "--alpha", "1",
]


class TestEval:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, BASE_EVAL)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"value {format(LOG5_OVER_4, '.17g')}"
        assert lines[1] == "method EQ_2_9"
        assert lines[2] == "condition 2"

    def test_json_matches_text_bit_for_bit(self, capsys):
        code, text_out, _ = run_cli(capsys, BASE_EVAL)
        code, json_out, _ = run_cli(capsys, BASE_EVAL + ["--json"])
        assert code == 0
        obj = json.loads(json_out)
        text_value = text_out.splitlines()[0].split(" ", 1)[1]
        assert obj["value"] == float(text_value)
        assert format(obj["value"], ".17g") == text_value
        assert obj["method"] == "EQ_2_9"
        assert obj["oracle_value"] is None
        assert set(obj) == {
            "value", "method", "condition", "oracle_value",
            "oracle_abs_error", "rel_discrepancy",
        }

    def test_oracle_fields(self, capsys):
        code, out, _ = run_cli(capsys, BASE_EVAL + ["--oracle", "--json"])
        obj = json.loads(out)
        assert obj["rel_discrepancy"] < 1e-8
        assert obj["oracle_abs_error"] > 0.0

    def test_product_line(self, capsys):
        code, out, _ = run_cli(capsys, BASE_EVAL + ["--product"])
        assert code == 0
        assert any(line.startswith("product ") for line in out.splitlines())

    def test_inapplicable_exit_3(self, capsys):
        argv = ["eval", "--lambda1", "2", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--alpha", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert "no closed form" in err

    def test_fallback_oracle(self, capsys):
        argv = ["eval", "--lambda1", "2", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--alpha", "1", "--fallback-oracle", "--json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "NA"
        assert obj["value"] == obj["oracle_value"]

    def test_missing_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--lambda1", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("k", [["--k1", "1e200", "--k2", "1e200"], ["--k1", "1e-170", "--k2", "1e-170"]])
    def test_wavenumbers_out_of_float_range_exit_2(self, capsys, k):
        alpha = "1" if k[1] == "1e200" else "1e-170"
        argv = ["eval", "--lambda1", "0", "--lambda2", "1", "--power", "2", *k, "--alpha", alpha]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "float arithmetic" in err

    def test_powers_out_of_float_range_exit_2(self, capsys):
        argv = ["eval", "--lambda1", "10", "--lambda2", "10", "--power", "21",
                "--k1", "1", "--k2", "1e16", "--alpha", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "leave the float range" in err

    def test_nonconvergence_exit_4(self, capsys, monkeypatch):
        # below the 13 panels x 15 evaluations of the first pass
        monkeypatch.setattr(oracle, "_BUDGET", 150)
        code, _, err = run_cli(capsys, BASE_EVAL + ["--oracle", "--rel-tol", "1e-12"])
        assert code == 4

    def test_invalid_input_without_closed_form_exit_2(self, capsys):
        argv = ["eval", "--lambda1", "2", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--alpha", "-1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == "" and err == "error: alpha must be positive and finite, got -1.0\n"

    def test_integrand_out_of_float_range_exit_4(self, capsys):
        # no closed form at power 200; r^200 e^(-r/2) leaves the float range past r ~ 38
        argv = ["eval", "--lambda1", "3", "--lambda2", "3", "--power", "200",
                "--k1", "1", "--k2", "1", "--alpha", "0.5", "--fallback-oracle"]
        code, out, err = run_cli(capsys, argv)
        assert code == 4
        assert out == "" and err.startswith("error: ") and "integrand not finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_oracle_rel_tol_not_finite_exit_2(self, capsys, tol):
        code, out, err = run_cli(capsys, BASE_EVAL + ["--oracle", "--rel-tol", tol])
        assert (code, out) == (2, "")
        assert err == f"error: rel_tol must be finite and >= 1e-12, got {float(tol)!r}\n"

    def test_oracle_rel_tol_below_floor_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, BASE_EVAL + ["--oracle", "--rel-tol", "1e-13"])
        assert code == 2 and out == "" and "rel_tol" in err
        argv = ["table", "--sweep", "alpha=1:2:2", "--lambda1", "0", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--oracle", "--rel-tol", "1e-13", "--out", str(tmp_path / "t.csv")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and "rel_tol" in err


class TestTable:
    def test_csv_equals_cell_by_cell_format(self):
        # NA, int, float and oracle columns, numpy scalars, and cell types
        # without a format spec, which are formatted cell by cell
        rows = [
            [0, 0, 1, 1.0, 1.0, 1.0, 0.40235947810852507, "EQ_2_9", 2.0, 0.40235947810852513, 1.4e-16],
            [3, 3, 120, 1.0, 1.0, 0.5, None, "NA", 2.0, None, None],
            [np.int64(2), True, 3, np.float64(0.1), 1e-300, math.inf, -0.0, "EQ_2_8", math.nan, 5, 0.0],
            [1, 2, 3, np.float32(0.1), Fraction(1, 3), 2.0, None, "{0}", 1.5, None, None],
        ]
        table = cli.SweepTable(list(cli.PARAM_NAMES) + ["value", "method", "condition",
                                                        "oracle_value", "rel_discrepancy"], rows)
        cell_by_cell = [",".join(table.columns)] + [",".join(cli._fmt(v) for v in row) for row in rows]
        assert table.to_csv() == "\n".join(cell_by_cell) + "\n"

    def test_alpha_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        argv = ["table", "--sweep", "alpha=0.5:2:4", "--lambda1", "0", "--lambda2", "0",
                "--power", "1", "--k1", "1", "--k2", "1", "--out", str(out_path), "--quiet"]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "lambda1,lambda2,power,k1,k2,alpha,value,method,condition"
        assert len(lines) == 5
        values = [float(line.split(",")[6]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)  # damping only suppresses
        alphas = [float(line.split(",")[5]) for line in lines[1:]]
        assert alphas == [0.5, 1.0, 1.5, 2.0]

    def test_csv_round_trip_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        argv = ["table", "--sweep", "alpha=0.5:2:3", "--sweep", "k1=1:2:2",
                "--lambda1", "1", "--lambda2", "1", "--power", "1",
                "--k2", "1", "--out", str(out_path), "--quiet"]
        assert run_cli(capsys, argv)[0] == 0
        raw = out_path.read_text(encoding="utf-8")
        lines = raw.splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            out_cells = []
            for i, cell in enumerate(cells):
                if i in (0, 1, 2):
                    out_cells.append(str(int(cell)))
                elif i == 7 or cell == "NA":
                    out_cells.append(cell)
                else:
                    out_cells.append(format(float(cell), ".17g"))
            rebuilt.append(",".join(out_cells))
        assert "\n".join(rebuilt) + "\n" == raw

    def test_single_point_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        argv = ["table", "--sweep", "alpha=1:1:1", "--lambda1", "0", "--lambda2", "0",
                "--power", "1", "--k1", "1", "--k2", "1", "--out", str(out_path), "--quiet"]
        assert run_cli(capsys, argv)[0] == 0
        assert len(out_path.read_text().splitlines()) == 2

    def test_inapplicable_row_marker(self, capsys, tmp_path):
        out_path = tmp_path / "na.csv"
        argv = ["table", "--sweep", "lambda1=0:2:3", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--alpha", "1", "--out", str(out_path), "--quiet"]
        assert run_cli(capsys, argv)[0] == 0
        rows = out_path.read_text().splitlines()[1:]
        by_l1 = {int(r.split(",")[0]): r.split(",") for r in rows}
        assert by_l1[0][7] == "EQ_2_9"
        assert by_l1[1][6] == "NA" and by_l1[1][7] == "NA"  # parity picks l3=0, triangle fails
        assert by_l1[2][6] == "NA"

    def test_fallback_fills_value(self, capsys, tmp_path):
        out_path = tmp_path / "fb.csv"
        argv = ["table", "--sweep", "lambda1=2:2:1", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--alpha", "1", "--out", str(out_path),
                "--fallback-oracle", "--quiet"]
        assert run_cli(capsys, argv)[0] == 0
        row = out_path.read_text().splitlines()[1].split(",")
        assert row[7] == "NA"
        assert row[6] != "NA"
        float(row[6])

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        argv = ["table", "--sweep", "alpha=0.5:1:2", "--lambda1", "0", "--lambda2", "0",
                "--power", "1", "--k1", "1", "--k2", "1", "--out", str(out_path),
                "--format", "json", "--quiet"]
        assert run_cli(capsys, argv)[0] == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2
        assert rows[0]["method"] == "EQ_2_9"
        assert rows[0]["alpha"] == 0.5

    def test_bad_sweep_exit_2(self, capsys, tmp_path):
        argv = ["table", "--sweep", "alpha=1:2", "--lambda1", "0", "--lambda2", "0",
                "--power", "1", "--k1", "1", "--k2", "1", "--out", str(tmp_path / "x.csv")]
        assert run_cli(capsys, argv)[0] == 2

    def test_missing_param_exit_2(self, capsys, tmp_path):
        argv = ["table", "--sweep", "alpha=1:2:2", "--lambda1", "0", "--lambda2", "0",
                "--power", "1", "--k1", "1", "--out", str(tmp_path / "x.csv")]
        assert run_cli(capsys, argv)[0] == 2

    def test_non_integer_sweep_exit_2(self, capsys, tmp_path):
        argv = ["table", "--sweep", "lambda1=0:3:3", "--lambda2", "0", "--power", "1",
                "--k1", "1", "--k2", "1", "--alpha", "1", "--out", str(tmp_path / "x.csv")]
        assert run_cli(capsys, argv)[0] == 2

    def test_unwritable_path_exit_5(self, capsys):
        argv = ["table", "--sweep", "alpha=1:1:1", "--lambda1", "0", "--lambda2", "0",
                "--power", "1", "--k1", "1", "--k2", "1",
                "--out", "/nonexistent-dir/x.csv", "--quiet"]
        assert run_cli(capsys, argv)[0] == 5


def reference_table(sweeps, fixed):
    """The CSV `table` must write, evaluated row by row with bare_integral.

    Raises the ValueError of the first row that has one, as `table` checks
    the row: `condition_number` first, then `bare_integral`.
    """
    axes = []
    for name, start, stop, count in sweeps:
        values = [float(v) for v in np.linspace(start, stop, count)]
        axes.append((name, [int(round(v)) for v in values] if name in cli.INT_PARAMS else values))
    lines = ["lambda1,lambda2,power,k1,k2,alpha,value,method,condition"]
    for combo in itertools.product(*[values for _, values in axes]):
        p = {**fixed, **dict(zip([name for name, _ in axes], combo))}
        l1, l2, n = int(p["lambda1"]), int(p["lambda2"]), int(p["power"])
        k1, k2, alpha = float(p["k1"]), float(p["k2"]), float(p["alpha"])
        cond = format(closedform.condition_number(k1, k2, alpha), ".17g")
        try:
            res = closedform.bare_integral(n, l1, l2, k1, k2, alpha)
            value, method = format(res.value, ".17g"), res.method.value
        except closedform.FormulaInapplicable:
            value, method = "NA", "NA"
        cells = [str(l1), str(l2), str(n)] + [format(v, ".17g") for v in (k1, k2, alpha)]
        lines.append(",".join(cells + [value, method, cond]))
    return "\n".join(lines) + "\n"


def table_argv(sweeps, fixed, out_path):
    argv = ["table", "--out", str(out_path), "--quiet"]
    for name, start, stop, count in sweeps:
        argv += ["--sweep", f"{name}={start!r}:{stop!r}:{count}"]
    for name, v in fixed.items():
        argv += [f"--{name}", repr(v)]
    return argv


class TestTableBatches:
    """`table` evaluates every order as one batch; the rows must equal `bare_integral`'s, row by row."""

    CASES = [
        # equal order, power l3 + 1 and power l3 + 2, 150 rows each
        ([("k2", 0.2, 0.4, 10), ("alpha", 0.1, 2.5, 15)], {"lambda1": 2, "lambda2": 2, "power": 1, "k1": 1.3}),
        ([("k2", 2.7, 5.0, 10), ("alpha", 0.1, 2.5, 15)], {"lambda1": 3, "lambda2": 4, "power": 2, "k1": 0.8}),
        ([("k2", 2.7, 5.0, 10), ("alpha", 0.1, 2.5, 15)], {"lambda1": 1, "lambda2": 3, "power": 4, "k1": 0.8}),
        # rows that take the 40-digit rescue
        ([("k2", 2.6, 3.6, 5)], {"lambda1": 4, "lambda2": 2, "power": 3, "k1": 1.0, "alpha": 0.5}),
        # y - 1 below 1e-6 on some rows: Q seeded by the forward recurrence
        ([("alpha", 1e-4, 1e-2, 7)], {"lambda1": 1, "lambda2": 1, "power": 2, "k1": 1.0, "k2": 1.0}),
        # lambda2 and power sweeps as in order_scan: NA rows, one row per order
        ([("lambda2", 0, 6, 7), ("power", 1, 9, 9)], {"lambda1": 3, "k1": 1.1, "k2": 0.9, "alpha": 0.7}),
        # the same orders with 3 rows each, an order's rows consecutive, and
        # with 4 rows each, a point's rows consecutive
        ([("power", 1, 6, 6), ("alpha", 0.5, 1.5, 3)], {"lambda1": 2, "lambda2": 3, "k1": 1.0, "k2": 1.7}),
        ([("alpha", 0.5, 1.5, 4), ("power", 1, 6, 6)], {"lambda1": 2, "lambda2": 3, "k1": 1.0, "k2": 1.7}),
    ]

    @pytest.mark.parametrize("sweeps,fixed", CASES)
    def test_rows_equal_row_by_row_reference(self, capsys, tmp_path, sweeps, fixed):
        out_path = tmp_path / "t.csv"
        assert run_cli(capsys, table_argv(sweeps, fixed, out_path)) == (0, "", "")
        assert out_path.read_text(encoding="utf-8") == reference_table(sweeps, fixed)

    def test_orders_are_batched(self, capsys, tmp_path, monkeypatch):
        # one batch per order, whatever its row count and the row order; the rows
        # of power 1, which has no closed form here, are written NA from the
        # batch's refusal, each with its point's condition, and a failing row
        # raises its batch outcome: none reaches bare_integral
        batches, rows, conditions = [], [], []
        batch, scalar, condition = closedform.bare_integral_batch, closedform.bare_integral, closedform.condition_number
        monkeypatch.setattr(closedform, "bare_integral_batch", lambda *a: batches.append(a) or batch(*a))
        monkeypatch.setattr(closedform, "bare_integral", lambda *a: rows.append(a) or scalar(*a))
        monkeypatch.setattr(closedform, "condition_number", lambda *a: conditions.append(a) or condition(*a))
        for (sweeps, fixed), count in zip(self.CASES[-2:], (3, 4)):
            batches.clear()
            rows.clear()
            conditions.clear()
            out_path = tmp_path / "t.csv"
            assert run_cli(capsys, table_argv(sweeps, fixed, out_path)) == (0, "", "")
            assert sorted(a[0] for a in batches) == [1, 2, 3, 4, 5, 6]
            assert all(len(a[3]) == count for a in batches)
            assert rows == []
            assert len(conditions) == count
            na = [row for row in out_path.read_text(encoding="utf-8").splitlines() if ",NA," in row]
            assert len(na) == count and all(row.startswith("2,3,1,") for row in na)
        # y rounds to 1 at alpha 1e-9: the row's error comes from its order's batch
        sweeps = [("power", 1, 6, 6), ("alpha", 1.0, 1e-9, 2)]
        fixed = {"lambda1": 2, "lambda2": 3, "k1": 1.0, "k2": 1.0}
        with pytest.raises(ValueError) as row_by_row:
            reference_table(sweeps, fixed)
        batches.clear()
        rows.clear()
        out_path = tmp_path / "failed.csv"
        assert run_cli(capsys, table_argv(sweeps, fixed, out_path)) == (2, "", f"error: {row_by_row.value}\n")
        assert "y = (k1^2 + k2^2 + alpha^2) / (2 k1 k2) is 1.0" in str(row_by_row.value)
        assert sorted(a[0] for a in batches) == [1, 2, 3, 4, 5, 6]
        assert rows == []
        assert not out_path.exists()

    def test_point_major_equals_order_major(self, capsys, tmp_path):
        # one sweep with its points outside and inside its orders, with NA rows and rescued rows
        fixed = {"lambda1": 4, "k1": 1.0, "k2": 1.3}
        orders = [("lambda2", 0, 6, 7), ("power", 1, 9, 9)]
        points = [("alpha", 0.8, 1.4, 3)]
        tables = []
        for sweeps in (points + orders, orders + points):
            out_path = tmp_path / "t.csv"
            assert run_cli(capsys, table_argv(sweeps, fixed, out_path)) == (0, "", "")
            header, *rows = out_path.read_text(encoding="utf-8").splitlines()
            tables.append((header, sorted(rows)))
        assert tables[0] == tables[1]
        assert any(",NA,NA," in row for row in tables[0][1])

    @pytest.mark.parametrize("sweeps,fixed", [
        # y rounds to 1 on the last alpha of both batched orders
        ([("alpha", 1.0, 1e-9, 5), ("power", 1, 2, 2)], {"lambda1": 1, "lambda2": 1, "k1": 1.0, "k2": 1.0}),
        # y overflows from the second k2 on
        ([("k2", 1.0, 1e200, 5), ("power", 2, 3, 2)], {"lambda1": 1, "lambda2": 0, "k1": 1.0, "alpha": 1.0}),
        # powers of k2 overflow from the second k2 on
        ([("k2", 1.0, 1e16, 5)], {"lambda1": 10, "lambda2": 10, "power": 21, "k1": 1.0, "alpha": 1.0}),
        # R overflows in floats on the last alpha (y - 1 ~ 5e-16)
        ([("alpha", 1.0, 3e-8, 5)], {"lambda1": 10, "lambda2": 10, "power": 21, "k1": 1.0, "k2": 1.0}),
        # equal order: Q_0(y)/(2 k1 k2) overflows on the last k1, where 2 k1 k2 is subnormal
        ([("k1", 1e-150, 1e-160, 5)], {"lambda1": 0, "lambda2": 0, "power": 1, "k2": 1.5e-160, "alpha": 1e-160}),
        # 1/(y - 1) is not finite (alpha^2 underflows) on the last alpha of an order
        # with no closed form (power 1, l1 + l2 odd)
        ([("alpha", 1.0, 1e-170, 5)], {"lambda1": 1, "lambda2": 2, "power": 1, "k1": 1.0, "k2": 1.0}),
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_point_in_batch_matches_row_by_row(self, capsys, tmp_path, sweeps, fixed):
        with pytest.raises(ValueError) as row_by_row:
            reference_table(sweeps, fixed)
        batched = run_cli(capsys, table_argv(sweeps, fixed, tmp_path / "a.csv"))
        assert batched == (2, "", f"error: {row_by_row.value}\n")
        assert not (tmp_path / "a.csv").exists()

    def test_oracle_column_equals_row_by_row(self, capsys, tmp_path):
        # six orders of four rows each, every order one oracle batch
        sweeps, fixed = self.CASES[-1]
        out_path = tmp_path / "t.csv"
        argv = table_argv(sweeps, fixed, out_path) + ["--oracle", "--rel-tol", "1e-8"]
        assert run_cli(capsys, argv) == (0, "", "")
        header, *rows = out_path.read_text(encoding="utf-8").splitlines()
        assert header.split(",")[-2:] == ["oracle_value", "rel_discrepancy"]
        for row in rows:
            l1, l2, n, k1, k2, alpha = row.split(",")[:6]
            q = oracle.integrate_two_bessel(int(n), int(l1), int(l2), float(k1), float(k2), float(alpha), 1e-8)
            assert row.split(",")[-2] == format(q.value, ".17g")

    def test_failing_oracle_row_matches_row_by_row(self, capsys, tmp_path):
        # the first grid of the middle row, l1 = 1, would pass the budget, as would the
        # last row's with another message; the first row's fits
        fixed = {"lambda2": 0, "power": 2, "k1": 1.5e-5, "k2": 1.0, "alpha": 1.0}
        assert oracle.integrate_two_bessel(2, 0, 0, 1.5e-5, 1.0, 1.0, 1e-8).converged
        with pytest.raises(oracle.NonConvergence) as row_by_row:
            oracle.integrate_two_bessel(2, 1, 0, 1.5e-5, 1.0, 1.0, 1e-8)
        argv = table_argv([("lambda1", 0, 2, 3)], fixed, tmp_path / "a.csv") + ["--oracle", "--rel-tol", "1e-8"]
        assert run_cli(capsys, argv) == (4, "", f"error: {row_by_row.value}\n")
        assert not (tmp_path / "a.csv").exists()


class TestParserReuse:
    """`main` reuses one parser; no call may leave state for the next."""

    def _parse_fresh(self, argv):
        return vars(cli.build_parser().parse_args(argv))

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_sweep_list_then_none(self, capsys, tmp_path):
        fixed = {"lambda1": 0, "lambda2": 0, "power": 1, "k1": 1.0, "k2": 1.0}
        swept = table_argv([("alpha", 0.5, 1.5, 3)], fixed, tmp_path / "a.csv")
        plain = table_argv([], {**fixed, "alpha": 1.0}, tmp_path / "b.csv")
        assert run_cli(capsys, swept) == (0, "", "")
        assert run_cli(capsys, plain) == (0, "", "")
        assert (tmp_path / "b.csv").read_text(encoding="utf-8") == reference_table([], {**fixed, "alpha": 1.0})
        assert vars(cli._parser().parse_args(plain)) == self._parse_fresh(plain)

    def test_oracle_then_plain(self, capsys):
        code, with_oracle, _ = run_cli(capsys, BASE_EVAL + ["--oracle"])
        assert code == 0 and "oracle_value" in with_oracle
        code, plain, _ = run_cli(capsys, BASE_EVAL)
        assert code == 0 and "oracle_value" not in plain
        assert with_oracle.startswith(plain)
        assert vars(cli._parser().parse_args(BASE_EVAL)) == self._parse_fresh(BASE_EVAL)

    # each command declares only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["table", "--sweep", "alpha=1:2:2", "--lambda1", "0", "--lambda2", "0", "--power", "1",
         "--k1", "1", "--k2", "1", "--out", os.devnull, "--json"],
        BASE_EVAL + ["--quiet"],
        ["check", "--suite", "eq29", "--max-l", "0", "--json"],
        ["wigner3j", "--j", "1,1,0", "--m", "0,0,0", "--quiet"],
        ["wigner6j", "--j", "1,1,1,1,1,1", "--quiet"],
    ])
    def test_flag_the_command_does_not_read_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_error_then_valid(self, capsys):
        code, first, _ = run_cli(capsys, BASE_EVAL)
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--lambda1", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, BASE_EVAL) == (code, first, "")


class TestWignerCommands:
    def test_wigner3j_text(self, capsys):
        code, out, _ = run_cli(capsys, ["wigner3j", "--j", "1,1,0", "--m", "0,0,0"])
        assert code == 0
        assert out.startswith("-sqrt(1/3) = -0.57735026918962573")

    def test_wigner3j_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["wigner3j", "--j", "1,1,1", "--m", "0,0,0"])
        assert out.splitlines()[0] == "0 = 0"

    def test_wigner6j_json(self, capsys):
        code, out, _ = run_cli(capsys, ["wigner6j", "--j", "1,1,1,1,1,1", "--json"])
        obj = json.loads(out)
        assert obj["exact"] == "sqrt(1/36)"
        assert obj["value"] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_malformed_exit_2(self, capsys):
        assert run_cli(capsys, ["wigner3j", "--j", "1,1", "--m", "0,0,0"])[0] == 2
        assert run_cli(capsys, ["wigner3j", "--j", "1,1,x", "--m", "0,0,0"])[0] == 2
        assert run_cli(capsys, ["wigner6j", "--j", "1,1,1,1,1"])[0] == 2
        assert run_cli(capsys, ["wigner3j", "--j", "1,1,2", "--m", "2,0,-2"])[0] == 2


class TestCheck:
    def test_eq29_small_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "--suite", "eq29", "--max-l", "0", "--quiet"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("PASS ")
        k, n = lines[-1].split()[1].split("/")
        assert k == n

    def test_unreachable_tolerance_fails(self, capsys, monkeypatch):
        # an equal-order closed form off by 1e-6 misses eq29's tolerance of 1e-8
        equal_order = closedform.two_bessel_equal_order

        def off_by_a_millionth(*args):
            right = equal_order(*args)
            return dataclasses.replace(right, value=right.value * (1.0 + 1e-6))

        monkeypatch.setattr(closedform, "two_bessel_equal_order", off_by_a_millionth)
        code, out, _ = run_cli(capsys, ["check", "--suite", "eq29", "--max-l", "0", "--quiet"])
        assert code == 1
        assert "FAIL" in out

    # the closed-form side of each suite (eq29's test is the one above) off by 1e-2,
    # more than any suite's tolerance
    @pytest.mark.parametrize("suite, max_l", [("eq26", 2), ("eq212", 0), ("eq21", 0), ("qfunc", 0)])
    def test_suite_fails_at_unreachable_tolerance(self, capsys, monkeypatch, suite, max_l):
        module, name = ((closedform, "three_bessel_product") if suite == "eq21"
                        else (specfun, "paper_q_combination"))
        right = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: right(*args) * 1.01)
        code, out, _ = run_cli(capsys, ["check", "--suite", suite, "--max-l", str(max_l), "--quiet"])
        assert code == 1
        assert " FAIL\n" in out

    @pytest.mark.parametrize("suite", ["eq29", "eq28", "eq26", "eq212"])
    def test_negative_max_l_exit_2(self, capsys, suite):
        code, out, err = run_cli(capsys, ["check", "--suite", suite, "--max-l", "-1"])
        assert (code, out, err) == (2, "", "error: --max-l must be >= 0, got -1\n")

    # the suites run the oracle at 1e-2 of the tolerance, and the oracle stops at 1e-12
    @pytest.mark.parametrize("tol", ["1e-18", "9e-11", "nan", "inf", "-1"])
    def test_unreachable_rel_tol_exit_2(self, capsys, tol):
        code, out, err = run_cli(capsys, ["check", "--suite", "eq28", "--max-l", "0", "--rel-tol", tol])
        assert code == 2 and out == ""
        assert err.startswith("error: --rel-tol must be finite and >= 1e-10")

    def test_rel_tol_at_the_floor_is_checked(self, capsys):
        argv = ["check", "--suite", "eq29", "--max-l", "0", "--rel-tol", "1e-10", "--quiet"]
        code, out, _ = run_cli(capsys, argv)
        assert (code, out.splitlines()[-1]) == (0, "PASS 54/54")

    # every eq28 and eq211 case agrees with the oracle within three times the oracle's
    # error estimate, so no tolerance fails them; a wrong product does
    @pytest.mark.parametrize("suite", ["eq28", "eq211"])
    def test_product_suite_fails_on_a_wrong_product(self, capsys, monkeypatch, suite):
        product = closedform.two_bessel_product

        def off_by_a_millionth(*args):
            right = product(*args)
            return dataclasses.replace(right, value=right.value * (1.0 + 1e-6))

        monkeypatch.setattr(closedform, "two_bessel_product", off_by_a_millionth)
        code, out, _ = run_cli(capsys, ["check", "--suite", suite, "--max-l", "0", "--quiet"])
        assert code == 1
        assert " FAIL\n" in out

    def test_hankel_suite_fails_on_a_wrong_route(self, capsys, monkeypatch):
        hankel = closedform._hankel_values

        def off_by_a_millionth(*args):
            return [(None if v is None else v * (1.0 + 1e-6), lost) for v, lost in hankel(*args)]

        monkeypatch.setattr(closedform, "_hankel_values", off_by_a_millionth)
        code, out, _ = run_cli(capsys, ["check", "--suite", "hankel", "--max-l", "0", "--quiet"])
        assert code == 1
        assert " FAIL\n" in out

    def test_wigner_fails_on_an_orthogonality_defect(self, capsys, monkeypatch):
        monkeypatch.setattr(wigner, "_orthogonality_defect", lambda *args: Fraction(1, 10**30))
        code, out, _ = run_cli(capsys, ["check", "--suite", "wigner", "--max-l", "0", "--quiet"])
        assert code == 1
        assert " FAIL\n" in out

    # the default max-l of 4 runs 114573 wigner and 385 qfunc cases (acceptance criteria 9 and 6),
    # and max-l 10 2069 hankel cases (criterion 12)
    @pytest.mark.parametrize("suite, cases", [("wigner", 603), ("qfunc", 100), ("hankel", 30)])
    def test_max_l_bounds_the_cases(self, capsys, suite, cases):
        code, out, _ = run_cli(capsys, ["check", "--suite", suite, "--max-l", "1", "--quiet"])
        assert code == 0
        assert out.splitlines()[-1] == f"PASS {cases}/{cases}"

    def test_fixed_suite_banner(self, capsys):
        _, out, _ = run_cli(capsys, ["check", "--suite", "eq21", "--max-l", "0"])
        assert out.startswith("suite eq21 (fixed cases, tol 0.001)\n")
        assert out.splitlines()[-1] == "PASS 21/21"

    def test_order_above_maximum_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["check", "--suite", "eq29", "--max-l", "21", "--quiet"])
        assert code == 2
        assert err == "error: L=21 exceeds the supported maximum 20\n"

    def test_banner_suppression(self, capsys):
        _, loud, _ = run_cli(capsys, ["check", "--suite", "eq29", "--max-l", "0"])
        _, quiet, _ = run_cli(capsys, ["check", "--suite", "eq29", "--max-l", "0", "--quiet"])
        assert loud.startswith("suite eq29")
        assert not quiet.startswith("suite")


class TestDeterminism:
    def test_byte_identical_stdout(self):
        cmd = [sys.executable, "-m", "besselrad.cli"] + BASE_EVAL + ["--oracle"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
