"""Command-line interface: single evaluations with optional oracle
comparison, parameter sweeps to CSV/JSON, Wigner symbol queries, and the
identity-check suites.

Exit codes: 0 success; 1 check-suite failure; 2 invalid or missing flags;
3 no closed form applies (without --fallback-oracle); 4 quadrature
non-convergence; 5 unwritable output path.

All output is deterministic: floats are serialized with 17 significant
digits (round-trip exact), rows follow the input grid order, and nothing
timestamped is ever printed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import closedform, oracle, specfun, wigner

PARAM_NAMES = ("lambda1", "lambda2", "power", "k1", "k2", "alpha")
INT_PARAMS = frozenset({"lambda1", "lambda2", "power"})

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_NONCONVERGENCE = 4
EXIT_UNWRITABLE = 5


def _fmt(v) -> str:
    """Serialize one cell: ints bare, floats with 17 significant digits."""
    if v is None:
        return "NA"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


# format specs that write a cell of these exact types as `_fmt` does: the
# types `cmd_table` puts in its rows
_CSV_SPECS = {str: "", int: "d", float: ".17g", np.float64: ".17g"}


def _csv_format(kinds: tuple) -> Optional[str]:
    """One format string for a CSV row of cells of these types, or None if a type has no spec."""
    fields = []
    for i, kind in enumerate(kinds):
        if kind is type(None):
            fields.append("NA")
        elif kind in _CSV_SPECS:
            fields.append(f"{{{i}:{_CSV_SPECS[kind]}}}")
        else:
            return None
    return ",".join(fields)


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return '"' + v + '"'
    return _fmt(v)


def _json_object(pairs) -> str:
    return "{" + ", ".join(f'"{k}": {_json_scalar(v)}' for k, v in pairs) + "}"


def _rel_discrepancy(a: float, b: float) -> float:
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


# ----------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace) -> int:
    n = args.power
    try:
        result = closedform.bare_integral(n, args.lambda1, args.lambda2, args.k1, args.k2, args.alpha)
        method = result.method.value
        value: Optional[float] = result.value
        condition = result.condition
    except closedform.FormulaInapplicable:
        condition = closedform.condition_number(args.k1, args.k2, args.alpha)
        if not args.fallback_oracle:
            raise
        method = "NA"
        value = None

    oracle_value: Optional[float] = None
    oracle_abs_error: Optional[float] = None
    rel_disc: Optional[float] = None
    if args.oracle or value is None:
        q = oracle.integrate_two_bessel(
            n, args.lambda1, args.lambda2, args.k1, args.k2, args.alpha, args.rel_tol
        )
        oracle_value = q.value
        oracle_abs_error = q.abs_error_estimate
        if value is None:
            value = q.value
        rel_disc = _rel_discrepancy(value, oracle_value)

    product_value: Optional[float] = None
    if args.product and method != "NA":
        l3, offset = closedform.coupling_route(n, args.lambda1, args.lambda2)
        product_value = closedform.two_bessel_product(
            args.lambda1, args.lambda2, l3, args.k1, args.k2, args.alpha, offset
        ).value

    if args.json:
        print(_json_object([
            ("value", value),
            ("method", method),
            ("condition", condition),
            ("oracle_value", oracle_value),
            ("oracle_abs_error", oracle_abs_error),
            ("rel_discrepancy", rel_disc),
        ]))
    else:
        print(f"value {_fmt(value)}")
        print(f"method {method}")
        print(f"condition {_fmt(condition)}")
        if product_value is not None:
            print(f"product {_fmt(product_value)}")
        if oracle_value is not None and args.oracle:
            print(f"oracle_value {_fmt(oracle_value)}")
            print(f"oracle_abs_error {_fmt(oracle_abs_error)}")
            print(f"rel_discrepancy {_fmt(rel_disc)}")
    return EXIT_OK


# ----------------------------------------------------------------------
# table


@dataclass
class SweepTable:
    columns: list[str]
    rows: list[list]

    def to_csv(self) -> str:
        """The columns and rows as CSV, each cell as `_fmt` writes it.

        Rows with the same cell types share one format string; a row with
        a cell type outside `_CSV_SPECS` goes through `_fmt` cell by cell.
        """
        layouts: dict[tuple, Optional[str]] = {}
        lines = [",".join(self.columns)]
        for row in self.rows:
            kinds = tuple(map(type, row))
            if kinds not in layouts:
                layouts[kinds] = _csv_format(kinds)
            fmt = layouts[kinds]
            lines.append(",".join(map(_fmt, row)) if fmt is None else fmt.format(*row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        objs = [_json_object(zip(self.columns, row)) for row in self.rows]
        return "[" + ",\n ".join(objs) + "]\n"


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    try:
        name, spec_part = text.split("=", 1)
        start_s, stop_s, count_s = spec_part.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise ValueError(f"bad sweep spec {text!r}; expected name=start:stop:count") from None
    if name not in PARAM_NAMES:
        raise ValueError(f"unknown sweep parameter {name!r}; choose from {', '.join(PARAM_NAMES)}")
    if count < 1:
        raise ValueError(f"sweep count must be >= 1, got {count}")
    values = [float(v) for v in np.linspace(start, stop, count)]
    if name in INT_PARAMS:
        rounded = [int(round(v)) for v in values]
        if any(abs(r - v) > 1e-9 for r, v in zip(rounded, values)):
            raise ValueError(f"sweep over integer parameter {name!r} hits non-integer values")
        values = rounded
    return name, values


def _orders(points: list[tuple]) -> dict[tuple, tuple]:
    """The rows of each order (l1, l2, n): (row indices, k1s, k2s, alphas), in row order."""
    orders: dict[tuple, list[tuple]] = {}
    for i, (l1, l2, n, k1, k2, alpha) in enumerate(points):
        orders.setdefault((l1, l2, n), []).append((i, k1, k2, alpha))
    return {order: tuple(zip(*rows)) for order, rows in orders.items()}


def _closed_forms(orders: dict, rows: int) -> tuple[list[Optional[closedform.EvalResult]], set[tuple]]:
    """The closed-form result of each of the rows, from one `bare_integral_batch` per order of `_orders`.

    Also returns the orders (l1, l2, n) with no closed form, whose batch
    raised `FormulaInapplicable`.  Their rows are None, as is every row the
    batch gives no result and every row of an order it refused with a
    ValueError: `cmd_table` evaluates those with `bare_integral`, which
    raises the row's error.
    """
    out: list[Optional[closedform.EvalResult]] = [None] * rows
    refused = set()
    for (l1, l2, n), (index, k1, k2, alpha) in orders.items():
        try:
            results = closedform.bare_integral_batch(n, l1, l2, k1, k2, alpha)
        except closedform.FormulaInapplicable:
            refused.add((l1, l2, n))
            continue
        except ValueError:
            continue
        for i, result in zip(index, results):
            out[i] = result
    return out, refused


def _oracles(orders: dict, wanted: set[tuple], rel_tol: float) -> dict[int, oracle.Outcome]:
    """The oracle outcome of every row of the wanted orders, one `integrate_two_bessel_batch` per order.

    A row's outcome is what `integrate_two_bessel` returns there, or the
    error it raises, which `cmd_table` raises at that row.
    """
    out: dict[int, oracle.Outcome] = {}
    for (l1, l2, n), (index, k1, k2, alpha) in orders.items():
        if (l1, l2, n) not in wanted:
            continue
        try:
            outcomes = oracle.integrate_two_bessel_batch(n, l1, l2, k1, k2, alpha, rel_tol)
        except ValueError as exc:
            outcomes = [exc] * len(index)
        out.update(zip(index, outcomes))
    return out


def cmd_table(args: argparse.Namespace) -> int:
    axes: list[tuple[str, list]] = []
    seen: set[str] = set()
    for text in args.sweep or []:
        name, values = _parse_sweep(text)
        if name in seen:
            raise ValueError(f"parameter {name!r} swept twice")
        seen.add(name)
        axes.append((name, values))

    fixed: dict[str, float] = {}
    for name in PARAM_NAMES:
        flag = getattr(args, name)
        if name in seen:
            if flag is not None:
                raise ValueError(f"parameter {name!r} both swept and fixed")
        else:
            if flag is None:
                raise ValueError(f"parameter {name!r} neither swept nor fixed")
            fixed[name] = flag

    columns = list(PARAM_NAMES) + ["value", "method", "condition"]
    if args.oracle:
        columns += ["oracle_value", "rel_discrepancy"]

    points = []
    for combo in itertools.product(*[values for _, values in axes]):
        point = {**fixed, **dict(zip([name for name, _ in axes], combo))}
        points.append((
            int(point["lambda1"]), int(point["lambda2"]), int(point["power"]),
            float(point["k1"]), float(point["k2"]), float(point["alpha"]),
        ))

    rows: list[list] = []
    orders = _orders(points)
    results, refused = _closed_forms(orders, len(points))
    # the oracle runs on every row with --oracle, and with --fallback-oracle
    # alone on every row of an order with no closed form
    wanted = refused if args.fallback_oracle else set()
    if args.oracle:
        wanted = set(orders)
    oracles = _oracles(orders, wanted, args.rel_tol)
    for i, ((l1, l2, n, k1, k2, alpha), res) in enumerate(zip(points, results)):
        if res is None:
            # the condition column, and the row's point error before the order's
            condition = closedform.condition_number(k1, k2, alpha)
            if (l1, l2, n) not in refused:
                res = closedform.bare_integral(n, l1, l2, k1, k2, alpha)
        if res is None:
            value, method = None, "NA"
        else:
            value, method, condition = res.value, res.method.value, res.condition
        oracle_value: Optional[float] = None
        rel_disc: Optional[float] = None
        if args.oracle or (value is None and args.fallback_oracle):
            oracle_value = oracle._raised(oracles[i]).value
        if value is None and args.fallback_oracle and oracle_value is not None:
            value = oracle_value
        if args.oracle and value is not None and oracle_value is not None:
            rel_disc = _rel_discrepancy(value, oracle_value)
        row: list = [l1, l2, n, k1, k2, alpha, value, method, condition]
        if args.oracle:
            row += [oracle_value, rel_disc]
        rows.append(row)

    table = SweepTable(columns, rows)
    payload = table.to_csv() if args.format == "csv" else table.to_json()
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    if not args.quiet:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# wigner symbols


def _parse_int_list(text: str, count: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None


def _print_wigner(value: wigner.WignerValue, as_json: bool) -> None:
    if as_json:
        print(_json_object([
            ("exact", value.exact_str()),
            ("sign", value.sign),
            ("radicand_num", value.radicand_num),
            ("radicand_den", value.radicand_den),
            ("value", float(value)),
        ]))
    else:
        print(f"{value.exact_str()} = {_fmt(float(value))}")


def cmd_wigner3j(args: argparse.Namespace) -> int:
    js = _parse_int_list(args.j, 3, "--j")
    ms = _parse_int_list(args.m, 3, "--m")
    arg = wigner.AngularMomenta3j(js[0], js[1], js[2], ms[0], ms[1], ms[2])
    _print_wigner(wigner.wigner_3j(arg), args.json)
    return EXIT_OK


def cmd_wigner6j(args: argparse.Namespace) -> int:
    js = _parse_int_list(args.j, 6, "--j")
    _print_wigner(wigner.wigner_6j(*js), args.json)
    return EXIT_OK


# ----------------------------------------------------------------------
# check suites

_K_GRID = (0.5, 1.0, 2.0)
_ALPHA_GRID = (0.5, 1.0, 2.0)


def _grid_oracle(n: int, l1: int, l2: int, rel_tol: float):
    """(k1, k2, alpha) of every point of the suites' grid with its oracle outcome, from one batch."""
    grid = list(itertools.product(_K_GRID, _K_GRID, _ALPHA_GRID))
    return zip(grid, oracle.integrate_two_bessel_batch(n, l1, l2, *zip(*grid), rel_tol))


def _suite_eq29(max_l: int, tol: float):
    inner = tol * 1e-2
    for L in range(max_l + 1):
        for (k1, k2, alpha), outcome in _grid_oracle(1, L, L, inner):
            cf = closedform.two_bessel_equal_order(L, k1, k2, alpha).value
            q = oracle._raised(outcome)
            rel = _rel_discrepancy(cf, q.value)
            label = f"eq29 L={L} k1={k1:g} k2={k2:g} alpha={alpha:g}"
            yield label, rel <= tol, f"rel={rel:.3e}"
            if L == 0:
                elem = 0.25 * math.log(
                    ((k1 + k2) ** 2 + alpha**2) / ((k1 - k2) ** 2 + alpha**2)
                ) / (k1 * k2)
                rel0 = _rel_discrepancy(cf, elem)
                yield label + " elementary", rel0 <= 1e-12, f"rel={rel0:.3e}"


def _two_bessel_cases(max_l: int):
    for l1 in range(max_l + 1):
        for l2 in range(max_l + 1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, 8) + 1):
                if (l1 + l2 + l3) % 2 == 0:
                    yield l1, l2, l3


def _suite_two_bessel(max_l: int, tol: float, offset: int, name: str):
    inner = tol * 1e-2
    for l1, l2, l3 in _two_bessel_cases(max_l):
        w3 = float(wigner.wigner_3j(wigner.AngularMomenta3j(l1, l2, l3, 0, 0, 0)))
        for (k1, k2, alpha), outcome in _grid_oracle(l3 + offset, l1, l2, inner):
            cf = closedform.two_bessel_product(l1, l2, l3, k1, k2, alpha, offset).value
            q = oracle._raised(outcome)
            lhs = w3 * q.value
            # at isolated zero crossings the relative measure is
            # ill-posed; the oracle's own uncertainty decides instead
            limit = tol * max(abs(cf), abs(lhs)) + 3.0 * abs(w3) * q.abs_error_estimate
            rel = _rel_discrepancy(cf, lhs)
            label = f"{name} l=({l1},{l2},{l3}) k1={k1:g} k2={k2:g} alpha={alpha:g}"
            yield label, abs(cf - lhs) <= limit, f"rel={rel:.3e}"


def _suite_eq26(max_l: int, tol: float):
    inner = tol * 1e-2
    for l in range(max_l + 1):
        for l3 in range(max_l + 1):
            for k1 in _K_GRID:
                for k2 in _K_GRID:
                    for alpha in _ALPHA_GRID:
                        q = oracle.check_eq_2_6(l, l3, k1, k2, alpha, inner)
                        y = closedform.y_param(k1, k2, alpha)
                        rhs = specfun.paper_q_combination(l, l3, y) / (
                            (2.0 * k1 * k2) ** l3 * math.factorial(l3)
                        )
                        limit = tol * max(abs(q.value), abs(rhs)) + 3.0 * q.abs_error_estimate
                        rel = _rel_discrepancy(q.value, rhs)
                        label = f"eq26 l={l} l3={l3} k1={k1:g} k2={k2:g} alpha={alpha:g}"
                        yield label, abs(q.value - rhs) <= limit, f"rel={rel:.3e}"


def _suite_eq212(max_l: int, tol: float):
    inner = tol * 1e-2
    for l in range(max_l + 3):
        for L in range(max_l + 1):
            for y0 in (1.1, 1.5, 3.0):
                q = oracle.check_eq_2_12(l, L, y0, inner)
                target = specfun.paper_q_combination(l, L, y0)
                rel = _rel_discrepancy(q.value, target)
                label = f"eq212 l={l} L={L} y0={y0:g}"
                yield label, rel <= tol, f"rel={rel:.3e}"


_EQ21_LAMBDAS = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 2), (2, 2, 2))
_EQ21_KTRIPLES = ((1.0, 1.0, 1.0), (1.0, 2.0, 2.5), (0.5, 1.0, 1.2), (1.0, 1.0, 3.0))


def _suite_eq21(max_l: int, tol: float):
    """Fixed cases: `max_l` bounds none of them."""
    for l1, l2, l3 in _EQ21_LAMBDAS:
        for k1, k2, k3 in _EQ21_KTRIPLES:
            cf = closedform.three_bessel_product(l1, l2, l3, k1, k2, k3)
            w3 = float(wigner.wigner_3j(wigner.AngularMomenta3j(l1, l2, l3, 0, 0, 0)))
            q = oracle.integrate_three_bessel_regularized(l1, l2, l3, k1, k2, k3)
            diff = abs(cf - w3 * q.value)
            scale = max(1.0, abs(cf), abs(w3 * q.value))
            label = f"eq21 l=({l1},{l2},{l3}) k=({k1:g},{k2:g},{k3:g})"
            yield label, diff <= tol * scale, f"diff={diff:.3e}"
    q = oracle.integrate_three_bessel_regularized(0, 0, 0, 1.0, 1.0, 1.0)
    diff = abs(q.value - math.pi / 4)
    yield "eq21 oracle l=(0,0,0) k=(1,1,1) vs pi/4", diff <= tol, f"diff={diff:.3e}"


def _suite_wigner(max_l: int, tol: float):
    """Exact relations: orthogonality for j1, j2 <= max_l + 1 and every j3, j3',
    the 3j and 6j symmetries for every momentum <= max_l."""
    for j1 in range(max_l + 2):
        for j2 in range(max_l + 2):
            hi = j1 + j2
            for j3 in range(abs(j1 - j2), hi + 1):
                for j3p in range(j3, hi + 1):
                    for m3 in range(-min(j3, j3p), min(j3, j3p) + 1):
                        defect = wigner._orthogonality_defect(j1, j2, j3, m3, j3p, m3)
                        label = f"wigner orth j1={j1} j2={j2} j3={j3} j3'={j3p} m3={m3}"
                        yield label, defect == 0, f"defect={defect}"
    def w3j(*jm):
        return wigner.wigner_3j(wigner.AngularMomenta3j(*jm))

    js = range(max_l + 1)
    for j1, j2 in itertools.product(js, js):
        for j3 in range(abs(j1 - j2), min(j1 + j2, max_l) + 1):
            phase = -1 if (j1 + j2 + j3) % 2 else 1
            for m1, m2 in itertools.product(range(-j1, j1 + 1), range(-j2, j2 + 1)):
                m3 = -m1 - m2
                if abs(m3) > j3:
                    continue
                base = w3j(j1, j2, j3, m1, m2, m3)
                odd = w3j(j2, j1, j3, m2, m1, m3)
                ok = (w3j(j2, j3, j1, m2, m3, m1) == base == w3j(j3, j1, j2, m3, m1, m2)
                      and odd.radicand == base.radicand and odd.sign == phase * base.sign)
                yield f"wigner 3j-symmetry ({j1},{j2},{j3};{m1},{m2},{m3})", ok, "exact"
    for top in itertools.product(js, repeat=3):
        for bottom in itertools.product(js, repeat=3):
            base = wigner.wigner_6j(*top, *bottom)
            label = f"wigner 6j-symmetry {{{','.join(map(str, top))};{','.join(map(str, bottom))}}}"
            for cols in itertools.permutations(range(3)):
                same = wigner.wigner_6j(*(top[c] for c in cols), *(bottom[c] for c in cols)) == base
                yield f"{label} columns {cols}", same, "exact"
            swapped = wigner.wigner_6j(*bottom[:2], top[2], *top[:2], bottom[2]) == base
            yield f"{label} rows swapped in columns 1-2", swapped, "exact"


def _suite_qfunc(max_l: int, tol: float):
    inner = tol * 1e-2
    for y in (1.01, 1.5, 2.0, 10.0, 100.0):
        for M in range(max_l + 3):
            for L in range(2 * max_l + 3):
                q = oracle.integrate_q_definition(L, M, y, inner)
                target = specfun.paper_q_combination(L, M, y)
                lhs = math.factorial(M) / 2.0 * q.value
                rel = _rel_discrepancy(lhs, target)
                label = f"qfunc L={L} M={M} y={y:g}"
                yield label, rel <= tol, f"rel={rel:.3e}"


# near-singular points (y - 1 = 0.02, 0.045, 0.011), where the Hankel route
# replaces the 40-digit rescue
_HANKEL_POINTS = ((1.0, 1.0, 0.2), (1.0, 1.1, 0.3), (1.0, 0.9, 0.1))


def _suite_hankel(max_l: int, tol: float):
    """The double sum against the Hankel route, with no oracle, at every order with
    l1, l2 <= max_l and l3 <= 20 where neither keeps fewer than 14 digits."""
    for l1 in range(max_l + 1):
        for l2 in range(max_l + 1):
            for n in range(1, min(l1 + l2, closedform._LAMBDA_MAX) + 3):
                for k1, k2, alpha in _HANKEL_POINTS:
                    try:
                        double, hankel = closedform._both_closed_forms(n, l1, l2, k1, k2, alpha)
                    except closedform.FormulaInapplicable:
                        break
                    if double is None or hankel is None:
                        continue
                    rel = _rel_discrepancy(double, hankel)
                    label = f"hankel l=({l1},{l2}) n={n} k1={k1:g} k2={k2:g} alpha={alpha:g}"
                    yield label, rel <= tol, f"rel={rel:.3e}"


_SUITES = {
    "eq29": (_suite_eq29, 1e-8),
    "eq28": (lambda ml, t: _suite_two_bessel(ml, t, 1, "eq28"), 1e-7),
    "eq211": (lambda ml, t: _suite_two_bessel(ml, t, 2, "eq211"), 1e-7),
    "eq26": (_suite_eq26, 1e-7),
    "eq212": (_suite_eq212, 1e-6),
    "eq21": (_suite_eq21, 1e-3),
    "wigner": (_suite_wigner, 0.0),
    "qfunc": (_suite_qfunc, 1e-9),
    "hankel": (_suite_hankel, 1e-10),
}
_FIXED_SUITES = frozenset({"eq21"})  # suites whose cases do not depend on --max-l


def cmd_check(args: argparse.Namespace) -> int:
    if args.max_l < 0:
        raise ValueError(f"--max-l must be >= 0, got {args.max_l}")
    if args.rel_tol is not None and not (args.rel_tol >= 1e-10 and math.isfinite(args.rel_tol)):
        raise ValueError(f"--rel-tol must be finite and >= 1e-10 (the oracle runs at 1e-2 of it, "
                         f"down to 1e-12), got {args.rel_tol!r}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    passed = 0
    total = 0
    for name in names:
        runner, default_tol = _SUITES[name]
        tol = args.rel_tol if args.rel_tol is not None else default_tol
        if not args.quiet:
            bound = "fixed cases" if name in _FIXED_SUITES else f"max-l {args.max_l}"
            print(f"suite {name} ({bound}, tol {tol:g})")
        for label, ok, detail in runner(args.max_l, tol):
            total += 1
            if ok:
                passed += 1
            print(f"{label} {detail} {'PASS' if ok else 'FAIL'}")
    print(f"PASS {passed}/{total}")
    return EXIT_OK if passed == total else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselrad",
        description="Closed-form damped radial integrals of spherical Bessel "
        "functions, with an independent quadrature oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="emit JSON instead of text")
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress banners")
    with_oracle = argparse.ArgumentParser(add_help=False)
    with_oracle.add_argument("--oracle", action="store_true", help="also run the quadrature oracle")
    with_oracle.add_argument("--rel-tol", type=float, default=1e-8, dest="rel_tol")
    with_oracle.add_argument("--fallback-oracle", action="store_true", dest="fallback_oracle",
                             help="fall back to quadrature when no closed form applies")

    p_eval = sub.add_parser("eval", parents=[as_json, with_oracle], help="evaluate one integral")
    p_eval.add_argument("--lambda1", type=int, required=True)
    p_eval.add_argument("--lambda2", type=int, required=True)
    p_eval.add_argument("--power", type=int, required=True, help="radial power n")
    p_eval.add_argument("--k1", type=float, required=True)
    p_eval.add_argument("--k2", type=float, required=True)
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--product", action="store_true", help="also print the 3j-weighted product")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", parents=[quiet, with_oracle], help="parameter sweep to CSV/JSON")
    p_table.add_argument("--sweep", action="append", metavar="NAME=START:STOP:COUNT",
                         help="sweep axis (repeatable; cartesian product)")
    for name in PARAM_NAMES:
        p_table.add_argument(f"--{name}", type=int if name in INT_PARAMS else float, default=None)
    p_table.add_argument("--out", required=True, help="output file path")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    p_w3 = sub.add_parser("wigner3j", parents=[as_json], help="exact 3j symbol")
    p_w3.add_argument("--j", required=True, help="three momenta a,b,c")
    p_w3.add_argument("--m", required=True, help="three projections x,y,z")
    p_w3.set_defaults(func=cmd_wigner3j)

    p_w6 = sub.add_parser("wigner6j", parents=[as_json], help="exact 6j symbol")
    p_w6.add_argument("--j", required=True, help="six momenta a,b,c,d,e,f")
    p_w6.set_defaults(func=cmd_wigner6j)

    p_check = sub.add_parser("check", parents=[quiet], help="run an identity-check suite")
    p_check.add_argument("--suite", required=True, choices=list(_SUITES) + ["all"])
    p_check.add_argument("--max-l", type=int, default=4, dest="max_l",
                         help="angular-order bound (default %(default)s): L of eq29, l1 and "
                         "l2 of eq28 and eq211, l and l3 of eq26, and L of eq212 <= max-l, "
                         "l of eq212 <= max-l + 2; wigner: j1, j2 <= max-l + 1 for "
                         "orthogonality, j <= max-l for the symmetries; qfunc: "
                         "L <= 2 max-l + 2, M <= max-l + 2; hankel: l1, l2 <= max-l "
                         "(every l3 <= 20 at 10); eq21's cases are fixed")
    p_check.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                         help="override the suite's default tolerance")
    p_check.set_defaults(func=cmd_check)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; its typed errors become `error: ...` on stderr and an exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except closedform.FormulaInapplicable as exc:
        error, code = exc, EXIT_INAPPLICABLE
    except oracle.NonConvergence as exc:
        error, code = exc, EXIT_NONCONVERGENCE
    except ValueError as exc:
        error, code = exc, EXIT_USAGE
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
