"""The benchmark's tracer (perfbench/spans.py) wraps functions the package still has, and changes no row."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from besselrad import cli, closedform, oracle, specfun

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_table_equals_plain(monkeypatch, tmp_path):
    # setting every callable to itself makes monkeypatch undo `install`'s wrappers afterwards
    for module in (closedform, specfun, oracle):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    argv = ["table", "--sweep", "alpha=0.5:1.5:2", "--sweep", "power=1:3:3", "--lambda1", "1",
            "--lambda2", "1", "--k1", "1", "--k2", "1.5", "--oracle", "--rel-tol", "1e-6", "--quiet"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, closedform, specfun, oracle)
    assert cli.main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    kinds = {span[0] for span in tracer.spans}
    assert {"specfun.paper_q_combination_all", "oracle.integrate_two_bessel"} <= kinds
    # every order is one batch, and every row has a closed form: no bare_integral call
    assert spans.layer_metrics(tracer.spans)["closedform.calls"] == 0


def test_order_sweep_at_one_point(monkeypatch, tmp_path, cold_q_memo):
    # every order (4, l2, n) at one point near y = 2, one row each: batches of one point
    for module in (closedform, specfun, oracle):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    argv = ["table", "--sweep", "lambda2=0:10:11", "--sweep", "power=1:21:21", "--lambda1", "4",
            "--k1", "1", "--k2", "1", "--alpha", "1.4", "--quiet"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    specfun._CHAINS.clear()
    rescued, seeds, keys = [], [], set()
    weighted_sum, seed, chain_values = closedform._decimal_weighted_sum, specfun._q_seed, specfun._chain_values
    monkeypatch.setattr(closedform, "_decimal_weighted_sum",
                        lambda *a: rescued.append(a) or weighted_sum(*a))
    monkeypatch.setattr(specfun, "_q_seed",
                        lambda lmax, y, prec: seeds.append((lmax, prec)) or seed(lmax, y, prec))
    monkeypatch.setattr(specfun, "_chain_values",
                        lambda lmax, M, y, prec: keys.add(_chain(lmax, y, prec)[:2]) or chain_values(lmax, M, y, prec))
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, closedform, specfun, oracle)
    assert cli.main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    # one 40-digit span per rescued row, whether its chain was built or read
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["closedform.rescue_calls"] == len(rescued)
    # the Q seed runs once per float lmax and once per 40-digit bucket the point asks for
    assert sorted(seeds) == sorted(keys)
    assert {prec for _, prec in seeds} == {0, 40}
    buckets = [top for top, prec in seeds if prec]
    assert len(buckets) == len(set(buckets)) and set(buckets) <= {0, 1, 3, 7, 15, 31, 63}
    assert len(buckets) < len({cs.l_need for cs, *_ in rescued}) < len(rescued)
    # each row equals `bare_integral` at a cold memo
    header, *rows = (tmp_path / "plain.csv").read_text(encoding="utf-8").splitlines()
    assert header.split(",")[:8] == ["lambda1", "lambda2", "power", "k1", "k2", "alpha", "value", "method"]
    for row in rows:
        l1, l2, n, k1, k2, alpha, value, method = row.split(",")[:8]
        if method == "NA":
            continue
        specfun._CHAINS.clear()
        expected = closedform.bare_integral(int(n), int(l1), int(l2), float(k1), float(k2), float(alpha))
        assert (float(value).hex(), method) == (expected.value.hex(), expected.method.value), row


@pytest.mark.parametrize("sweeps", [
    # point-major: a point's orders consecutive, 4 points
    ["alpha=0.8:1.4:4", "lambda2=0:10:11", "power=1:21:21"],
    # order-major: an order's points consecutive, 2 points
    ["lambda2=0:10:11", "power=1:21:21", "alpha=0.8:1.4:2"],
])
def test_order_sweep_at_several_points(monkeypatch, tmp_path, cold_q_memo, sweeps):
    # every order (4, l2, n) at y from 1.28 to 1.79, where most sums take the 40-digit rescue
    rescued, seeds, keys = [], [], set()
    weighted_sum, seed, chain_values = closedform._decimal_weighted_sum, specfun._q_seed, specfun._chain_values
    monkeypatch.setattr(closedform, "_decimal_weighted_sum",
                        lambda *a: rescued.append(a) or weighted_sum(*a))
    monkeypatch.setattr(specfun, "_q_seed",
                        lambda lmax, y, prec: seeds.append(_chain(lmax, y, prec)) or seed(lmax, y, prec))
    monkeypatch.setattr(specfun, "_chain_values",
                        lambda lmax, M, y, prec: keys.add(_chain(lmax, y, prec)) or chain_values(lmax, M, y, prec))
    argv = ["table", "--lambda1", "4", "--k1", "1", "--k2", "1.3", "--quiet", "--out", str(tmp_path / "t.csv")]
    assert cli.main(argv + [arg for sweep in sweeps for arg in ("--sweep", sweep)]) == 0
    # the Q seed runs once per (top, precision, points) the sweep asks for, at both precisions
    assert sorted(seeds) == sorted(keys)
    assert {prec for _, prec, _, _ in seeds} == {0, 40}
    assert len([key for key in keys if key[1]]) < len(rescued)


def _chain(lmax, y, prec):
    """The (top, precision, points' shape and bytes) of the memo's chain that serves lmax.

    The top is lmax in floats and its bucket's top at 40 digits.
    """
    return specfun._chain_top(lmax, prec), prec, np.shape(y), np.array(y, dtype=float).tobytes()
