"""One round of a workload in a fresh process: every table command, in-process, timed.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the package's source directory, the command lines and the
round's directory.  The worker imports `besselrad` from that source only,
runs each command through `besselrad.cli.main`, and writes `result.json`
into the round's directory: per command the exit code or the exception it
raised and its wall time, the monotonic clock at the first command (for
set-up time), the process's peak resident set and, when traced, the
per-layer figures of spans.py.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def run_commands(commands: list[list[str]], main) -> list[dict]:
    """Run every command through `main`; one that raises is recorded and the next one runs."""
    records = []
    clock = time.perf_counter
    for argv in commands:
        start = clock()
        try:
            rc, error = main(argv), None
        except Exception as exc:
            rc, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"rc": rc, "error": error, "seconds": clock() - start})
    return records


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    VmHWM belongs to the address space, which exec replaces; ru_maxrss
    would also count the parent's resident set at fork time.
    """
    try:
        status = Path("/proc/self/status").read_text(encoding="ascii")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import besselrad
    from besselrad import cli, closedform, oracle, specfun

    if Path(besselrad.__file__).resolve().parent != (src / "besselrad").resolve():
        raise SystemExit(f"besselrad imported from {besselrad.__file__}, not from {src}")
    return cli, closedform, specfun, oracle


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    round_dir = Path(spec["round_dir"])
    cli, closedform, specfun, oracle = _import_package(Path(spec["src"]))
    entry = cli.main
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, closedform, specfun, oracle)
        entry = tracer.wrap("cli.main", cli.main)
    first_start = time.monotonic()
    records = run_commands(spec["commands"], entry)
    result = {
        "first_start": first_start,
        "commands": records,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        spans.write_spans(tracer.spans, round_dir / "spans.csv")
    (round_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
