"""Benchmark of the `besselrad table` path: throughput, accuracy, set-up time, memory and per-layer time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The seed makes the workload's table commands (workloads.py) and their
reference values (reference.py, stored under perfbench/_cache).  Rounds of
the same commands then run until S seconds have passed, each round in a
fresh single-threaded worker process (worker.py) that writes its CSV files
into a fresh directory under perfbench/_work.  Every row of every round is
checked (check.py).  A fresh process per round keeps `order_scan` cold and
gives one set-up sample per round.

With --trace 0 the end-to-end metrics are reported; with --trace 1 rounds
alternate between untraced and traced workers, the traced rows must equal
the untraced ones, and the per-layer metrics plus the tracing overhead are
reported.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKER_TIMEOUT_S = 150
REFERENCE_TIMEOUT_S = 600
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "correct_digits_mean": "digits",
    "peak_rss_mb": "MB",
}
# per-round sums and counts, reported as the median over traced rounds
PER_ROUND = {
    "cli.self_s": "s",
    "closedform.calls": "count",
    "closedform.self_s": "s",
    "closedform.refusals": "count",
    "closedform.product_calls": "count",
    "closedform.rescue_calls": "count",
    "specfun.q_float_s": "s",
    "specfun.q_float_calls": "count",
    "specfun.q_ext_s": "s",
    "specfun.bessel_s": "s",
    "specfun.bessel_points": "count",
    "wigner.s": "s",
    "wigner.calls": "count",
    "wigner.distinct": "count",
    "oracle.self_s": "s",
    "oracle.calls": "count",
}
# pooled over all traced rounds
POOLED = {
    "closedform.call_p50_us": "us",
    "closedform.call_p99_us": "us",
    "closedform.rescue_rate": "ratio",
    "oracle.evals_per_point": "count",
    "oracle.panels_per_point": "count",
    "trace.overhead_share": "ratio",
}
PER_LAYER = {**PER_ROUND, **POOLED}


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_round(index: int, commands, traced: bool, work: Path) -> tuple[Path, dict, float]:
    """Run one round in a fresh worker; returns its directory, result and launch time."""
    round_dir = work / f"round-{index}"
    round_dir.mkdir()
    spec = {
        "src": str(SRC),
        "round_dir": str(round_dir),
        "trace": traced,
        "commands": [c.argv(str(round_dir / f"cmd-{i}.csv")) for i, c in enumerate(commands)],
    }
    spec_path = round_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = round_dir / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                env=_worker_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=WORKER_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError(f"round {index} took more than {WORKER_TIMEOUT_S} s") from None
    result_path = round_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise HarnessError(f"worker of round {index} exited {proc.returncode}:\n{tail}")
    return round_dir, json.loads(result_path.read_text(encoding="utf-8")), launch


def _reference(workload: str, seed: int) -> dict:
    """The stored reference, made first by the reference command if absent.

    A separate process keeps sympy and its memory out of this one, so the
    workers are launched from a process of the same size on every run.
    """
    import reference

    path = reference.cache_path(workload, seed)
    if not path.exists():
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0 or not path.exists():
            raise HarnessError(f"reference command exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(path.read_text(encoding="utf-8"))


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import check
    import workloads

    if not (SRC / "besselrad" / "__init__.py").is_file():
        raise HarnessError(f"no package source at {SRC / 'besselrad'}")
    commands = workloads.build(workload, seed)
    points = [c.points() for c in commands]
    ref = check.reference_map(_reference(workload, seed))
    oracle_tol = workloads.ORACLE_REL_TOL
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tally = check.Tally()
    rounds = []
    untraced_csv: dict[int, bytes] = {}
    deadline = time.monotonic() + seconds
    index = 0
    previous = None
    while True:
        traced = trace and index % 2 == 1
        round_dir, result, launch = _run_round(index, commands, traced, work)
        if len(result["commands"]) != len(commands):
            raise HarnessError(f"round {index} ran {len(result['commands'])} of {len(commands)} commands")
        rows_written = 0
        for i, (cmd, pts, record) in enumerate(zip(commands, points, result["commands"])):
            path = round_dir / f"cmd-{i}.csv"
            data = path.read_bytes() if path.exists() else None
            if data is not None:
                rows_written += max(data.count(b"\n") - 1, 0)
            if not traced:
                untraced_csv.setdefault(i, data)
            elif data != untraced_csv.get(i):
                tally.unexpected.append(f"command {i}: traced rows differ from untraced rows")
            check.check_command(pts, oracle_tol if cmd.oracle else None, cmd.fault, record,
                                None if data is None else data.decode("utf-8"), ref, tally)
        table_s = sum(r["seconds"] for r in result["commands"])
        rounds.append({
            "traced": traced,
            "setup_s": result["first_start"] - launch,
            "table_s": table_s,
            "points_per_s": rows_written / table_s,
            "rss_mb": result["peak_rss_kb"] / 1024.0,
            "layers": result.get("layers"),
        })
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = round_dir
        index += 1
        if time.monotonic() >= deadline and (not trace or index % 2 == 0):
            break

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        metrics = _layer_metrics([r for r in rounds if r["traced"]], plain)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "points_per_s": statistics.median(r["points_per_s"] for r in plain),
            "correct_digits_mean": tally.digits_mean,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        units = END_TO_END
    for message in tally.unexpected[:10]:
        print(f"unexpected failure: {message}", file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": [r["points_per_s"] for r in plain],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    layers = [r["layers"] for r in traced]
    out = {name: statistics.median(l[name] for l in layers) for name in PER_ROUND}
    bare_us = sorted(v for l in layers for v in l["bare_us"])
    out["closedform.call_p50_us"] = _percentile(bare_us, 50)
    out["closedform.call_p99_us"] = _percentile(bare_us, 99)
    out["closedform.rescue_rate"] = _ratio(sum(l["closedform.rescue_calls"] for l in layers),
                                           sum(l["closedform.product_calls"] for l in layers))
    oracle_calls = sum(l["oracle.calls"] for l in layers)
    out["oracle.evals_per_point"] = _ratio(sum(l["oracle.evaluations"] for l in layers), oracle_calls)
    out["oracle.panels_per_point"] = _ratio(sum(l["oracle.panels"] for l in layers), oracle_calls)
    out["trace.overhead_share"] = (statistics.median(r["table_s"] for r in traced)
                                   / statistics.median(r["table_s"] for r in plain) - 1.0)
    return out


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    per_round = result.pop("rounds")
    print(f"{args.workload} seed {args.seed}: {len(per_round)} untraced rounds, "
          f"{result['attempted']} rows attempted, {result['failed']} failed, correct={result['correct']}")
    print("  points_per_s by round: " + " ".join(f"{v:.5g}" for v in per_round))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
