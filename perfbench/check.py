"""Checks every row a table command wrote against the reference and the parity/triangle rule.

A row fails when its command raised, exited non-zero or wrote no file; when
its inputs are not the ones asked for; when it is `NA` where parity and the
triangle rule give a closed form, or carries a value where they give none;
or when its relative error against the reference exceeds CLOSED_FORM_TOL.
With `--oracle`, the oracle column must also be within ORACLE_TOL_FACTOR
times the requested `--rel-tol`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import mpmath

from reference import route

CLOSED_FORM_TOL = 1e-7     # the acceptance suite's closed-form tolerance
ORACLE_TOL_FACTOR = 10.0   # oracle tolerance = factor * --rel-tol
MAX_DIGITS = 16.0
COLUMNS = ["lambda1", "lambda2", "power", "k1", "k2", "alpha", "value", "method", "condition"]
ORACLE_COLUMNS = COLUMNS + ["oracle_value", "rel_discrepancy"]


def reference_map(record: dict) -> dict:
    """Point -> (hi, lo) double-double of the stored reference, or None for no closed form."""
    out = {}
    for point, text in zip(record["points"], record["values"]):
        key = tuple(point)
        if text is None:
            out[key] = None
            continue
        with mpmath.workdps(50):
            v = mpmath.mpf(text)
            hi = float(v)
            lo = float(v - hi)
        out[key] = (hi, lo)
    return out


def rel_error(value: float, ref: tuple) -> float:
    """|value - ref| / |ref| with ref = hi + lo; exact subtraction keeps all digits."""
    hi, lo = ref
    return abs((value - hi) - lo) / abs(hi)


def digits(rel: float) -> float:
    """Correct digits of a row: min(16, -log10(relative error))."""
    return MAX_DIGITS if rel == 0.0 else min(MAX_DIGITS, -math.log10(rel))


@dataclass
class Tally:
    """Outcome of the rows checked so far."""

    attempted: int = 0
    failed: int = 0
    digits_sum: float = 0.0
    digit_rows: int = 0
    unexpected: list = field(default_factory=list)   # failures outside known faults

    def fail(self, known: bool, message: str) -> None:
        self.failed += 1
        self.digit_rows += 1
        if not known:
            self.unexpected.append(message)

    @property
    def digits_mean(self) -> float:
        return self.digits_sum / self.digit_rows if self.digit_rows else 0.0


def _cell_float(text: str) -> float | None:
    if text == "NA":
        return None
    return float(text)


def check_command(points: list, oracle_tol: float | None, fault: str | None,
                  outcome: dict, csv_text: str | None, ref: dict, tally: Tally) -> None:
    """Check the rows of one command; every expected row is attempted exactly once.

    `outcome` is the worker's record of the command (`error`, `rc`);
    `oracle_tol` is the --rel-tol of a `--oracle` command, else None;
    `fault` names the known fault the command probes, if any.
    """
    known = fault is not None
    tally.attempted += len(points)
    problem = None
    if outcome.get("error"):
        problem = f"raised {outcome['error']}"
    elif outcome.get("rc") != 0:
        problem = f"exit code {outcome.get('rc')}"
    elif csv_text is None:
        problem = "no output file"
    rows = []
    if problem is None:
        table = list(csv.reader(io.StringIO(csv_text)))
        header = ORACLE_COLUMNS if oracle_tol is not None else COLUMNS
        if not table or table[0] != header:
            problem = f"header {table[0] if table else None}"
        elif len(table) - 1 != len(points):
            problem = f"{len(table) - 1} rows for {len(points)} points"
        else:
            rows = table[1:]
    if problem is not None:
        for p in points:
            tally.fail(known, f"{p}: {problem}")
        return
    for p, row in zip(points, rows):
        message = _check_row(p, row, oracle_tol, ref, tally)
        if message is not None:
            tally.fail(known, f"{p}: {message}")


def _check_row(p: tuple, row: list, oracle_tol: float | None, ref: dict, tally: Tally) -> str | None:
    """None if the row passes (its digits are then added), else why it failed."""
    try:
        got = (int(row[0]), int(row[1]), int(row[2]), float(row[3]), float(row[4]), float(row[5]))
        value = _cell_float(row[6])
    except ValueError as exc:
        return f"unparsable row {row}: {exc}"
    if got != p:
        return f"inputs {got}"
    if route(p[0], p[1], p[2]) is None:
        if value is not None or row[7] != "NA":
            return f"value {row[6]} ({row[7]}) where parity/triangle give no closed form"
        return None
    if value is None:
        return "NA where parity/triangle give a closed form"
    rv = ref[p]
    if not math.isfinite(value):
        return f"non-finite value {row[6]}"
    rel = rel_error(value, rv)
    if not rel <= CLOSED_FORM_TOL:
        return f"relative error {rel:.3e} of value {row[6]}"
    if oracle_tol is not None:
        oracle_value = _cell_float(row[9])
        if oracle_value is None or not math.isfinite(oracle_value):
            return f"oracle value {row[9]}"
        rel = rel_error(oracle_value, rv)
        if not rel <= ORACLE_TOL_FACTOR * oracle_tol:
            return f"oracle relative error {rel:.3e}"
    tally.digits_sum += digits(rel)
    tally.digit_rows += 1
    return None
