"""The benchmark's tracer (perfbench/spans.py) wraps functions the package still has, and changes no row."""

import importlib.util
from pathlib import Path

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
    assert {"closedform.bare_integral", "oracle.integrate_two_bessel"} <= kinds
    # two rows per order, below BATCH_MIN_ROWS: one bare_integral call per row
    assert spans.layer_metrics(tracer.spans)["closedform.calls"] == 6
