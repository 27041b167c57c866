"""The benchmark's workloads: seeded `besselrad table` commands and the rows they must write.

A workload is a list of table commands.  Each command fixes some of the six
table parameters and sweeps others over `np.linspace` grids, exactly as the
CLI does, so the rows a command must write (and in which order) are known
here without running the program.  Orders (l1, l2, n) are fixed per
workload, so every seed does the same kind and amount of work; the seed
draws the wavenumbers and dampings inside each workload's stated ranges.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("sweep_far", "sweep_near", "order_scan", "oracle_check")
PARAMS = ("lambda1", "lambda2", "power", "k1", "k2", "alpha")
INT_PARAMS = ("lambda1", "lambda2", "power")
ORACLE_REL_TOL = 1e-8   # --rel-tol passed to `table --oracle`

# sweep_far: coupling order l3 <= 2 on all three routes, y >= 1.5
FAR_ORDERS = (
    (0, 0, 1), (2, 2, 1), (4, 4, 1),                   # equal order, l3 = 0
    (1, 1, 2), (3, 3, 2),                              # power l3 + 2, l3 = 0
    (0, 1, 2), (2, 1, 2), (3, 4, 2),                   # power l3 + 1, l3 = 1
    (1, 0, 3), (2, 3, 3),                              # power l3 + 2, l3 = 1
    (0, 2, 3), (1, 1, 3), (4, 2, 3), (3, 3, 3),        # power l3 + 1, l3 = 2
    (2, 0, 4), (1, 3, 4), (4, 4, 4),                   # power l3 + 2, l3 = 2
)
FAR_K2_COUNT = 10
FAR_ALPHA_COUNT = 15

# sweep_near: one order per route for each l3 = 0..12, l1, l2 <= 8
NEAR_ORDERS = (
    (3, 3, 1), (2, 2, 2),
    (4, 5, 2), (5, 4, 3),
    (6, 4, 3), (3, 5, 4),
    (7, 4, 4), (2, 5, 5),
    (8, 4, 5), (5, 7, 6),
    (6, 1, 6), (4, 7, 7),
    (7, 5, 7), (8, 6, 8),
    (3, 8, 8), (6, 7, 9),
    (4, 8, 9), (8, 6, 10),
    (8, 7, 10), (5, 6, 11),
    (8, 8, 11), (6, 8, 12),
    (7, 8, 12), (7, 6, 13),
    (6, 6, 13), (8, 8, 14),
)
# y - 1 decades [10^d, 10^(d+1)] each order is swept over, from the lowest
# decade where the 40-digit rescue kept the closed-form tolerance 1e-7 on
# 100 seeds (worst row 7.4e-9); further down it does not (l3 = 9 reached a
# relative error of 8.9e-7 near y - 1 = 1e-5, l3 = 12 1.1e-7 near 1e-4),
# which the fixed fault points below probe instead
NEAR_FIRST_DECADE = {9: -4, 10: -4, 11: -3, 12: -3}
NEAR_ALPHA_COUNT = 6

# the three closed-form faults of the near-singular corner, on fixed inputs;
# each gets a command of its own, since a point that raises aborts a command
NEAR_FAULTS = (
    ("silent_garbage_y_minus_1_below_1e-6", (4, 4, 9, 1.0, 1.0, 1e-3)),
    ("rescue_40_digits_short", (6, 6, 13, 1.0, 1.0, 0.01)),
    ("zero_division_y_rounds_to_1", (0, 1, 2, 1.0, 1.0, 1e-9)),
)

# order_scan: every (l1, l2, n) with l1, l2 <= 10 and n <= 21 (l3 <= 20), in
# SCAN_PASSES passes; the first pass builds every coupling set cold
SCAN_LMAX = 10
SCAN_NMAX = 21
SCAN_PASSES = 3
SCAN_Y_RANGE = (1.3, 2.5)

# oracle_check: l <= 4 on all three routes, alpha swept over 0.05 .. 2
ORACLE_ORDERS = (
    (0, 0, 1), (2, 2, 1),
    (1, 1, 2), (0, 1, 2), (3, 2, 2),
    (1, 0, 3), (2, 4, 3), (3, 1, 4),
)
ORACLE_K2_COUNT = 4
ORACLE_ALPHA_COUNT = 6


@dataclass
class Command:
    """One `besselrad table` command and the rows it must write."""

    fixed: dict
    sweeps: list = field(default_factory=list)   # (name, start, stop, count)
    oracle: bool = False
    fault: str | None = None                     # name of a known fault this probes

    def argv(self, out: str) -> list[str]:
        args = ["table"]
        for name, start, stop, count in self.sweeps:
            args += ["--sweep", f"{name}={start!r}:{stop!r}:{count}"]
        for name in PARAMS:
            if name in self.fixed:
                args += [f"--{name}", repr(self.fixed[name])]
        if self.oracle:
            args += ["--oracle", "--rel-tol", repr(ORACLE_REL_TOL)]
        return args + ["--out", out, "--quiet"]

    def points(self) -> list[tuple]:
        """(l1, l2, n, k1, k2, alpha) of every row, in the order the CLI writes them."""
        axes = []
        for name, start, stop, count in self.sweeps:
            values = [float(v) for v in np.linspace(start, stop, count)]
            if name in INT_PARAMS:
                values = [int(round(v)) for v in values]
            axes.append((name, values))
        rows = []
        for combo in itertools.product(*[values for _, values in axes]):
            point = dict(self.fixed)
            point.update(zip([name for name, _ in axes], combo))
            rows.append((
                int(point["lambda1"]), int(point["lambda2"]), int(point["power"]),
                float(point["k1"]), float(point["k2"]), float(point["alpha"]),
            ))
        return rows


def _order(l1: int, l2: int, n: int) -> dict:
    return {"lambda1": l1, "lambda2": l2, "power": n}


def _sweep_far(rng: np.random.Generator) -> list[Command]:
    cmds = []
    for l1, l2, n in FAR_ORDERS:
        # (rho + 1/rho) / 2 >= 1.5 for rho = k2/k1 <= 0.38 or >= 2.62, so
        # y >= 1.5 whatever the damping.  Every order gets both sides: the
        # extended-precision rescue fires on one side of some orders only.
        for rho_lo, rho_hi in ((rng.uniform(0.08, 0.2), rng.uniform(0.25, 0.38)),
                               (rng.uniform(2.62, 3.5), rng.uniform(4.0, 6.0))):
            k1 = float(10 ** rng.uniform(-0.3, 0.3))
            alpha_lo, alpha_hi = k1 * rng.uniform(0.05, 0.3), k1 * rng.uniform(1.5, 3.0)
            cmds.append(Command(
                {**_order(l1, l2, n), "k1": k1},
                [("k2", float(k1 * rho_lo), float(k1 * rho_hi), FAR_K2_COUNT),
                 ("alpha", float(alpha_lo), float(alpha_hi), FAR_ALPHA_COUNT)],
            ))
    return cmds


def _near_decades(n: int, l1: int, l2: int) -> range:
    l3 = n - 1 if (l1 + l2 + n - 1) % 2 == 0 else n - 2
    return range(NEAR_FIRST_DECADE.get(l3, -5), -1)


def _sweep_near(rng: np.random.Generator) -> list[Command]:
    cmds = []
    for l1, l2, n in NEAR_ORDERS:
        for d in _near_decades(n, l1, l2):
            k1 = float(10 ** rng.uniform(-0.3, 0.3))
            # k2 = k1 (1 + delta) with delta^2 at most a quarter of the
            # decade's floor; the damping supplies the rest of y - 1
            delta = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 0.5) * 10 ** (d / 2))
            k2 = k1 * (1.0 + delta)
            lo, hi = 10.0**d * rng.uniform(1.0, 1.2), 10.0 ** (d + 1) * rng.uniform(0.85, 1.0)
            gap = (k1 - k2) ** 2
            alpha_lo = float(np.sqrt(2.0 * k1 * k2 * lo - gap))
            alpha_hi = float(np.sqrt(2.0 * k1 * k2 * hi - gap))
            cmds.append(Command(
                {**_order(l1, l2, n), "k1": k1, "k2": float(k2)},
                [("alpha", alpha_lo, alpha_hi, NEAR_ALPHA_COUNT)],
            ))
    for name, (l1, l2, n, k1, k2, alpha) in NEAR_FAULTS:
        cmds.append(Command({**_order(l1, l2, n), "k1": k1, "k2": k2, "alpha": alpha}, fault=name))
    return cmds


def _order_scan(rng: np.random.Generator) -> list[Command]:
    cmds = []
    # a pass is one command per l1, each at its own (k1, k2, alpha); the
    # commands of a pass take y from equal slices of SCAN_Y_RANGE, and each
    # pass shifts which l1 gets which slice.  The rescue rate and the cost
    # of the high-order Q recurrences both depend on y, and the digits a
    # command keeps depend on how its y rounds, so many independent points
    # keep both steady from seed to seed.
    slices = SCAN_LMAX + 1
    edges = np.linspace(SCAN_Y_RANGE[0], SCAN_Y_RANGE[1], slices + 1)
    for p in range(SCAN_PASSES):
        for l1 in range(SCAN_LMAX + 1):
            s = (l1 + 4 * p) % slices
            k1 = float(10 ** rng.uniform(-0.3, 0.3))
            rho = float(rng.uniform(0.6, 1.6))
            y = float(rng.uniform(edges[s], edges[s + 1]))
            alpha = k1 * np.sqrt(2.0 * rho * y - 1.0 - rho * rho)
            cmds.append(Command(
                {"lambda1": l1, "k1": k1, "k2": k1 * rho, "alpha": float(alpha)},
                [("lambda2", 0, SCAN_LMAX, SCAN_LMAX + 1), ("power", 1, SCAN_NMAX, SCAN_NMAX)],
            ))
    return cmds


def _oracle_check(rng: np.random.Generator) -> list[Command]:
    cmds = []
    # the quadrature's cost grows with k/alpha, so each order takes k1 from
    # its own slice of [0.5, 2] and every command reaches alpha near 0.05
    edges = np.linspace(-0.3, 0.3, len(ORACLE_ORDERS) + 1)
    for i, (l1, l2, n) in enumerate(ORACLE_ORDERS):
        k1 = float(10 ** rng.uniform(edges[i], edges[i + 1]))
        rho_lo, rho_hi = rng.uniform(0.5, 0.6), rng.uniform(1.8, 2.0)
        alpha_lo, alpha_hi = float(rng.uniform(0.05, 0.06)), float(rng.uniform(1.8, 2.0))
        cmds.append(Command(
            {**_order(l1, l2, n), "k1": k1},
            [("k2", float(k1 * rho_lo), float(k1 * rho_hi), ORACLE_K2_COUNT),
             ("alpha", alpha_lo, alpha_hi, ORACLE_ALPHA_COUNT)],
            oracle=True,
        ))
    return cmds


_BUILDERS = {
    "sweep_far": _sweep_far,
    "sweep_near": _sweep_near,
    "order_scan": _order_scan,
    "oracle_check": _oracle_check,
}


def build(workload: str, seed: int) -> list[Command]:
    """The commands of one round of `workload` for `seed`."""
    rng = np.random.default_rng([NAMES.index(workload), seed])
    return _BUILDERS[workload](rng)


def distinct_points(commands: list[Command]) -> list[tuple]:
    """Every distinct row input of a round, in first-seen order."""
    return list(dict.fromkeys(p for c in commands for p in c.points()))


def fingerprint() -> str:
    """Digest of the sources that define the inputs and the reference values."""
    here = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for name in ("workloads.py", "reference.py"):
        h.update((here / name).read_bytes())
    return h.hexdigest()[:12]
