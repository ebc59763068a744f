"""Seeded inputs for the four benchmark workloads.

Every function here is a pure function of the seed, so the worker that runs
the operations and the parent that checks them build identical inputs.  A
run repeats one seeded round of operations until its time is up (see
run.py).  Where an operation's cost depends strongly on its size (pair
index, degree, output format), a round has a fixed composition, so two
seeds give different inputs of near-equal total cost.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import oracle

# --- scalar -----------------------------------------------------------------
SCALAR_ROUND = 2000
SCALAR_PAIRS = (1, 32)
# x = -1 - 10^u with u uniform: spans the rounding-limited edge next to -1
# up to the huge-argument end
SCALAR_LOG10_GAP = (-6.0, 4.0)
SCALAR_TAYLOR_SHARE = 0.10
# accepted-domain inputs that fail at the time of writing (NaN bounds or
# NonConvergenceError); checked once a run as known-defect inputs, never
# filtered out
SCALAR_PROBE_EDGE = 40
SCALAR_EDGE_PAIRS = (33, 80)


def _gap_x(rng: random.Random) -> float:
    return -1.0 - 10.0 ** rng.uniform(*SCALAR_LOG10_GAP)


@lru_cache(maxsize=None)
def scalar_refs(kind: str, n: int, x: float) -> tuple:
    """Oracle references (lower, upper) of one single-point call: kind "cheb"
    is cheb_sandwich(n, x), "taylor" is taylor_sandwich(2n-1, x)."""
    sums = oracle.partial_sums(x, 2 * n) if kind == "cheb" else oracle.taylor_sums(x, 2 * n)
    return sums[2 * n - 1], sums[2 * n]


def conditioned(kind: str, n: int, x: float) -> bool:
    """True when both bounds of the call can track the oracle in float64
    (oracle.conditioned)."""
    return all(map(oracle.conditioned, scalar_refs(kind, n, x)))


def _core_op(rng: random.Random) -> tuple:
    kind = "taylor" if rng.random() < SCALAR_TAYLOR_SHARE else "cheb"
    return (kind, rng.randint(*SCALAR_PAIRS), _gap_x(rng), False)


def _edge_op(rng: random.Random) -> tuple:
    which = rng.randrange(3)
    if which == 0:
        return ("cheb", rng.randint(*SCALAR_PAIRS), -math.inf, True)
    if which == 1:
        return ("cheb", rng.randint(*SCALAR_PAIRS), -(10.0 ** rng.uniform(200.0, 308.0)), True)
    return ("cheb", rng.randint(*SCALAR_EDGE_PAIRS), _gap_x(rng), True)


@lru_cache(maxsize=None)
def _scalar_draws(seed: int) -> tuple[tuple, tuple]:
    """(timed ops, known-defect ops): core ops are drawn until SCALAR_ROUND
    of them are conditioned; the ill-conditioned ones met on the way and
    SCALAR_PROBE_EDGE edge ops form the known-defect probe."""
    rng = random.Random(f"scalar:{seed}")
    timed, ill = [], []
    while len(timed) < SCALAR_ROUND:
        op = _core_op(rng)
        (timed if conditioned(*op[:3]) else ill).append(op)
    edge = [_edge_op(rng) for _ in range(SCALAR_PROBE_EDGE)]
    return tuple(timed), tuple(edge + ill)


def scalar_round(seed: int) -> list[tuple]:
    """SCALAR_ROUND single-point calls (kind, n, x, edge) on conditioned
    core inputs, the timed load.

    kind "cheb" calls cheb_sandwich(n, x); kind "taylor" calls
    taylor_sandwich(2n-1, x), the Maclaurin bracket at the same degrees.
    """
    return list(_scalar_draws(seed)[0])


def scalar_probe(seed: int) -> list[tuple]:
    """The known-defect calls of a run, run once and untimed: the edge share
    (x = -inf, x <= -1e200, pairs 33..80) and the ill-conditioned core
    draws, where float64 cannot track the oracle."""
    return list(_scalar_draws(seed)[1])


# --- grid -------------------------------------------------------------------
GRID_POINTS = 2_000_000
GRID_SAMPLES = 128  # checked points per grid
GRID_KINDS = ("linear", "log")
# The two pairs of a round are an antithetic couple p + q = GRID_PAIR_SUM,
# so every round has the same summed degree (the kernels' cost) while the
# pairs themselves cover 4..32 across seeds.
GRID_PAIRS = (4, 18)
GRID_PAIR_SUM = 36
GRID_TU_DEGREES = (48, 64)  # T at d, U at 48 + 64 - d


def make_grid(kind: str):
    """The 2M-point abscissae: linear on [-30, -1.01], log on [-1e4, -1-1e-6]."""
    import numpy as np

    if kind == "linear":
        return np.linspace(-30.0, -1.01, GRID_POINTS)
    return -np.geomspace(1e4, 1.0 + 1e-6, GRID_POINTS)


def grid_round(seed: int) -> dict:
    """Ops (kind, degree, grid) and checked sample indices per grid.

    kind is clenshaw, taylor, T or U.  Pairs p and 36 - p, one on each
    grid: Clenshaw and Taylor at both degrees 2p-1 and 2p, plus one T_n
    and one U_n.
    """
    rng = random.Random(f"grid:{seed}")
    p = rng.randint(*GRID_PAIRS)
    grids = list(GRID_KINDS)
    rng.shuffle(grids)
    ops = []
    for pair, grid in zip((p, GRID_PAIR_SUM - p), grids):
        for degree in (2 * pair - 1, 2 * pair):
            ops.append(("clenshaw", degree, grid))
            ops.append(("taylor", degree, grid))
    d = rng.randint(*GRID_TU_DEGREES)
    ops.append(("T", d, rng.choice(GRID_KINDS)))
    ops.append(("U", sum(GRID_TU_DEGREES) - d, rng.choice(GRID_KINDS)))
    rng.shuffle(ops)
    samples = {g: sorted(rng.sample(range(GRID_POINTS), GRID_SAMPLES)) for g in GRID_KINDS}
    return {"ops": ops, "samples": samples}


# --- certify ----------------------------------------------------------------
CERTIFY_DEGREES = 64
CERTIFY_SCAN = (-1e4, 500)  # grid_sign_scan(n, x_min, points)


def certify_order(seed: int, rep: int) -> list[int]:
    """Degrees 1..N in the seeded order of repetition ``rep``."""
    order = list(range(1, CERTIFY_DEGREES + 1))
    random.Random(f"certify:{seed}:{rep}").shuffle(order)
    return order


# --- cli --------------------------------------------------------------------
SWEEP_POINTS = 100_000
SWEEP_PAIRS = (4, 16)
SWEEP_RANGES = {
    "linear": ["--x-min=-30.0", "--x-max=-1.01"],
    "log": ["--x-min=-10000.0", "--x-max=-1.000001", "--log-grid"],
}
# (format, --with-taylor, grid): each format, taylor setting and grid kind
# once, fixed so that the formatting cost of a round does not depend on
# the seed
SWEEP_KINDS = (("csv", True, "linear"), ("json", False, "log"))
SMALL_COMMANDS = ("enclose", "coeffs", "certify", "compare")
FORMATS = ("csv", "json")


def _small_argv(rng: random.Random, command: str, fmt: str) -> list[str]:
    if command == "enclose":
        # drawn like the scalar core ops until conditioned; negative floats
        # go as --x=VALUE: argparse reads a bare "-1e4" as a flag
        n, x = rng.randint(*SCALAR_PAIRS), _gap_x(rng)
        while not conditioned("cheb", n, x):
            n, x = rng.randint(*SCALAR_PAIRS), _gap_x(rng)
        args = ["--n", str(n), f"--x={x!r}"]
    elif command == "coeffs":
        args = ["--n", str(rng.randint(0, 64))]
    elif command == "certify":
        args = ["--range", f"1..{rng.randint(1, 64)}"]
    else:
        args = ["--n", "10", "--points", "1000"]
    return [command, *args, "--format", fmt]


def cli_round(seed: int) -> list[list[str]]:
    """CLI argument lists: the eight small command/format kinds, then the
    SWEEP_KINDS as 100k-row sweeps, each block in seeded order."""
    rng = random.Random(f"cli:{seed}")
    small = [(c, f) for c in SMALL_COMMANDS for f in FORMATS]
    rng.shuffle(small)
    sweeps = []
    for fmt, taylor, grid in SWEEP_KINDS:
        argv = ["sweep", "--n", str(rng.randint(*SWEEP_PAIRS)), *SWEEP_RANGES[grid],
                "--points", str(SWEEP_POINTS), "--format", fmt]
        if taylor:
            argv.append("--with-taylor")
        sweeps.append(argv)
    rng.shuffle(sweeps)
    return [_small_argv(rng, c, f) for c, f in small] + sweeps


def is_sweep(argv: list[str]) -> bool:
    return argv[0] == "sweep"
