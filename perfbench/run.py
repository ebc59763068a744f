#!/usr/bin/env python3
"""The chebbound benchmark: seeded workloads, an mpmath oracle, traced layers.

    python3 perfbench/run.py --workload {cli,scalar,grid,certify,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  Each
workload is a closed loop driven by one process with one thread: the next
operation starts when the previous one returns.

--trace 0 measures the end-to-end metrics with no tracing; --trace 1
runs one round of the same seeded inputs untraced and then traced, in
fresh processes, and reports the per-layer metrics from the spans.  Every
output is checked against the oracle in ``oracle.py`` after the timed
region.  The report lines name the metrics in the terms of each workload;
the last line is one JSON object with the metrics listed in BENCHMARK.json.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads
from cli_child import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli", "scalar", "grid", "certify")
SETUP_REPS = 5
STARTUP_REPS = 3
CHILD_TIMEOUT_S = 170
SWEEP_CHECK_ROWS = 128

# The end-to-end metrics of BENCHMARK.json, measured on every workload.
# What an "op" and an "item" are differs by workload (README.md):
# op = one small CLI invocation / one single-point call / one vectorised
# grid call / one degree of a certify repetition; item = sweep row / call /
# grid point / certified degree.
E2E_UNITS = {"setup_s": "s", "op_mean_ms": "ms", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# Times of the machine-speed references (worker.reference_ufunc,
# worker.reference_numpy, the sum of a certify repetition's
# worker.reference_mpmath slices, cli_child.reference_format, and a fresh
# interpreter importing numpy and mpmath) on the machine the bounds were
# set on.  A gated time is the median over rounds of round time / reference
# time, times the nominal value, so it reads as a time on that machine and
# moves little when the host drifts.
REF_NOMINAL_S = {"mpmath": 0.022, "ufunc": 0.0098, "numpy": 0.021, "format": 0.0003, "startup": 0.170}
STARTUP_REF_ARGV = ["-c", "import numpy, mpmath"]

# fresh interpreter: import chebbound, then the workload's first call at a
# fixed representative size
SETUP_ARGV = {
    "cli": ["-m", "chebbound", "enclose", "--n", "8", "--x=-5.0"],
    "scalar": ["-c", "import chebbound; chebbound.cheb_sandwich(8, -5.0)"],
    "grid": ["-c", "import chebbound, numpy; chebbound.clenshaw_eval(chebbound.partial_sum(31), "
                   f"numpy.linspace(-30.0, -1.01, {workloads.GRID_POINTS}))"],
    "certify": ["-c", "import chebbound as c; c.build_G_via_reduction(32); c.build_G_closed_form(32); "
                      "c.grid_sign_scan(32, -1e4, 500); c.sign_certificate(32)"],
}


# --- child processes --------------------------------------------------------

@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Children:
    """Runs ``python <args>`` children through spawner.py, one at a time.

    Output goes through files in a scratch directory inside the checkout,
    which is removed on close.
    """

    def __init__(self):
        self.work = ROOT / ".perfbench_work"
        self.work.mkdir(exist_ok=True)
        self.env = _env()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, args: list[str]) -> Child:
        out, err = self.work / "stdout", self.work / "stderr"
        req = {"argv": [sys.executable, *args], "env": self.env, "cwd": str(ROOT),
               "stdout": str(out), "stderr": str(err), "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        return Child(reply["code"], out.read_bytes(), err.read_bytes(), reply["wall_s"], reply["maxrss_kb"] / 1024.0)

    def worker(self, workload, seed, *, seconds=None, rounds=None, trace=False, rep=0,
               probe=False) -> tuple[dict, Child]:
        spec = {"workload": workload, "seed": seed, "seconds": seconds, "rounds": rounds,
                "trace": trace, "rep": rep, "probe": probe}
        child = self.run([str(BENCH / "worker.py"), json.dumps(spec)])
        if child.code != 0:
            raise RuntimeError(f"{workload} worker exited {child.code}: {child.err.decode()[-2000:]}")
        return json.loads(child.out), child

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


# --- statistics -------------------------------------------------------------

def tail(values) -> tuple[float | None, float | None, int]:
    """(percentile, value, n): the highest percentile with at least 10
    samples beyond it, the 11th largest value at p = 100 (n - 10) / n;
    (None, None, n) when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, None, n
    return 100.0 * (n - 10) / n, ordered[n - 11], n


# --- accounting -------------------------------------------------------------

# failure reasons that point at a broken program rather than at the known
# numeric defects (strays: misses beyond 1e-9 that rounding explains, and
# the failures of the scalar edge share); any of these, a "wrong" value
# among them, makes "correct" false
def _breaks_program(reason: str) -> bool:
    return reason != "stray"


@dataclass
class Tally:
    """Checks of one workload run.

    The timed load runs on inputs where the package can pass every check
    (oracle.conditioned, and no edge share), so ``failed`` counts only what
    goes wrong there.  The known-defect inputs, the scalar edge share and
    checked values whose reference float64 cannot track, are checked too,
    once a run, and counted apart in ``known`` and ``known_failed``.
    """

    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    misses: int = 0
    reasons: Counter = field(default_factory=Counter)
    broken: list = field(default_factory=list)
    known: int = 0
    known_failed: int = 0
    known_reasons: Counter = field(default_factory=Counter)

    def op(self, reasons, edge=False, what="", count=1):
        """Count ``count`` executions of one op that failed for ``reasons``."""
        self.attempted += count
        if reasons:
            self.failed += count
            for r in set(reasons):
                self.reasons[r] += count
            bad = [r for r in reasons if _breaks_program(r)]
            if bad and not edge and len(self.broken) < 20:
                self.broken.append(f"{what}: {','.join(sorted(set(bad)))}")

    def known_checks(self, verdicts, edge=False, what=""):
        """Count checked values of known-defect inputs, a verdict each."""
        self.known += len(verdicts)
        bad = [v for v in verdicts if v]
        self.known_failed += len(bad)
        self.known_reasons.update(bad)
        breaks = sorted({v for v in bad if _breaks_program(v)})
        if breaks and not edge and len(self.broken) < 20:
            self.broken.append(f"{what}: {','.join(breaks)}")

    def bracket(self, contained: bool, count=1):
        self.pairs += count
        self.misses += count * (not contained)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def known_frac(self):
        return self.known_failed / self.known if self.known else 0.0

    @property
    def miss_frac(self):
        return self.misses / self.pairs if self.pairs else 0.0


@dataclass
class Report:
    """What one workload run measured, in the workload's own terms."""
    workload: str
    tally: Tally
    e2e: dict = field(default_factory=dict)       # BENCHMARK.json name -> value
    named: list = field(default_factory=list)     # (name, value, unit, detail)
    layers: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def name(self, metric, value, unit, detail=""):
        self.named.append((metric, value, unit, detail))


# --- oracle checks ----------------------------------------------------------

def judged(tally, values, refs, what="") -> list[str]:
    """The distinct verdicts other than None over values whose reference is
    conditioned; the others are counted on the tally as known-defect checks."""
    reasons, known = set(), []
    for value, ref in zip(values, refs):
        verdict = oracle.judge(value, ref)
        if oracle.conditioned(ref):
            reasons.update([verdict] if verdict else [])
        else:
            known.append(verdict)
    if known:
        tally.known_checks(known, what=what)
    return sorted(reasons)


def check_pair(tally, lo, hi, x, ref_lo, ref_hi, count=1, what="") -> list[str]:
    """Containment counted on the tally; returns the value verdicts."""
    tally.bracket(oracle.contains(lo, hi, x), count)
    return judged(tally, (lo, hi), (ref_lo, ref_hi), what)


def _parse_rows(text: str, fmt: str, header: str) -> list[dict]:
    """Rows of a CSV or JSON table as dicts; ValueError when malformed."""
    cols = header.split(",")
    if fmt == "json":
        data = json.loads(text)
        rows = data if isinstance(data, list) else [data]
        if not all(isinstance(r, dict) and list(r) == cols for r in rows):
            raise ValueError("json keys")
        return rows
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        raise ValueError("csv header")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError("csv cells")
        rows.append(dict(zip(cols, cells)))
    return rows


def _num(v) -> float:
    return math.nan if v is None else float(v)


@dataclass
class CliCheck:
    reasons: list
    rows: int = 0


@lru_cache(maxsize=None)
def _compare_reference(degree: int, points: int) -> tuple[oracle.Ref, oracle.Ref]:
    """Sup errors of the degree-d Chebyshev and Maclaurin sums on [-1, 1],
    in float64 from the oracle's coefficients (numpy's own evaluators).
    Each is the difference of a sum and exp, so both round against the sum
    of their coefficients plus e."""
    grid = np.linspace(-1.0, 1.0, points)
    ref = np.exp(grid)
    a = [float(c) for c in oracle.exp_coeffs(degree)]
    inv_fact = [1.0 / math.factorial(k) for k in range(degree + 1)]
    cheb = np.polynomial.chebyshev.chebval(grid, a)
    tay = np.polynomial.polynomial.polyval(grid, inv_fact)
    return (oracle.Ref(float(np.max(np.abs(cheb - ref))), sum(a) + math.e, degree),
            oracle.Ref(float(np.max(np.abs(tay - ref))), sum(inv_fact) + math.e, degree))


def _opt(argv, flag, cast=str):
    for i, a in enumerate(argv):
        if a == flag:
            return cast(argv[i + 1])
        if a.startswith(flag + "="):
            return cast(a.split("=", 1)[1])
    return None


def check_cli(tally: Tally, argv: list[str], child: Child, check_seed: str) -> CliCheck:
    """Validate one CLI invocation's exit code, table shape and values."""
    command, fmt = argv[0], _opt(argv, "--format")
    if child.code != 0:
        return CliCheck([f"exit:{child.code}"])
    try:
        text = child.out.decode()
        if command == "enclose":
            return _check_enclose(tally, argv, _parse_rows(text, fmt, "x,lower,upper,lower_degree,upper_degree"))
        if command == "coeffs":
            return _check_coeffs(argv, _parse_rows(text, fmt, "index,a"))
        if command == "certify":
            header = ("n,ratio_bound,conditions,verdict" if fmt == "json" else
                      "n,ratio_num,ratio_den,unit_quadratic,shifted_quadratic,leading_positive,verdict")
            return _check_certify(argv, fmt, _parse_rows(text, fmt, header))
        if command == "compare":
            return _check_compare(argv, _parse_rows(text, fmt, "degree,cheb_sup_err,taylor_sup_err"))
        return _check_sweep(tally, argv, fmt, _parse_rows(text, fmt, "x,lower,upper,exp,taylor_lower,taylor_upper"),
                            check_seed)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return CliCheck([f"malformed:{type(exc).__name__}"])


def _check_enclose(tally, argv, rows):
    n, x = _opt(argv, "--n", int), _opt(argv, "--x", float)
    if len(rows) != 1:
        return CliCheck(["malformed:rows"], len(rows))
    r = rows[0]
    if float(r["x"]) != x or (int(r["lower_degree"]), int(r["upper_degree"])) != (2 * n - 1, 2 * n):
        return CliCheck(["malformed:fields"], 1)
    sums = oracle.partial_sums(x, 2 * n)
    return CliCheck(check_pair(tally, float(r["lower"]), float(r["upper"]), x, sums[2 * n - 1], sums[2 * n],
                               what=" ".join(argv)), 1)


def _check_coeffs(argv, rows):
    n = _opt(argv, "--n", int)
    if len(rows) != n + 1 or [int(r["index"]) for r in rows] != list(range(n + 1)):
        return CliCheck(["malformed:rows"], len(rows))
    ref = oracle.exp_coeffs(n)
    return CliCheck(oracle.judge_all([float(r["a"]) for r in rows], [oracle.plain(a, n) for a in ref]), len(rows))


def _check_certify(argv, fmt, rows):
    hi = int(_opt(argv, "--range").split("..")[1])
    if len(rows) != hi:
        return CliCheck(["malformed:rows"], len(rows))
    for k, r in enumerate(rows, start=1):
        if fmt == "json":
            good = (r["n"] == k and r["ratio_bound"] == {"num": 4, "den": 5 * (k + 1)}
                    and all(v is True for v in r["conditions"].values()) and len(r["conditions"]) == 3)
        else:
            good = [r[c] for c in r] == [str(k), "4", str(5 * (k + 1)), "true", "true", "true", "accepted"]
        if not good:
            return CliCheck(["malformed:fields"], len(rows))
        if r["verdict"] != "accepted":
            return CliCheck(["rejected"], len(rows))
    return CliCheck([], len(rows))


def _check_compare(argv, rows):
    n, points = _opt(argv, "--n", int), _opt(argv, "--points", int)
    if len(rows) != n or [int(r["degree"]) for r in rows] != list(range(1, n + 1)):
        return CliCheck(["malformed:rows"], len(rows))
    reasons = []
    for d, r in enumerate(rows, start=1):
        ce, te = float(r["cheb_sup_err"]), float(r["taylor_sup_err"])
        reasons += oracle.judge_all((ce, te), _compare_reference(d, points))
        if not ce <= te:
            reasons.append("malformed:cheb_above_taylor")
    return CliCheck(reasons, len(rows))


def _check_sweep(tally, argv, fmt, rows, check_seed):
    n, points = _opt(argv, "--n", int), _opt(argv, "--points", int)
    x_min, x_max = _opt(argv, "--x-min", float), _opt(argv, "--x-max", float)
    if len(rows) != points:
        return CliCheck(["malformed:rows"], len(rows))
    grid = (-np.geomspace(-x_min, -x_max, points) if "--log-grid" in argv
            else np.linspace(x_min, x_max, points))
    taylor = "--with-taylor" in argv
    reasons = []
    for i in random.Random(check_seed).sample(range(points), SWEEP_CHECK_ROWS):
        r = rows[i]
        x = float(r["x"])
        if not oracle.tracks(x, grid[i]):
            reasons.append("malformed:x")
            continue
        what = f"{' '.join(argv)} row {i}"
        sums = oracle.partial_sums(x, 2 * n)
        reasons += check_pair(tally, _num(r["lower"]), _num(r["upper"]), x, sums[2 * n - 1], sums[2 * n], what=what)
        reasons += oracle.judge_all([_num(r["exp"])], [oracle.plain(oracle.exp40(x))])
        if taylor:
            tay = oracle.taylor_sums(x, 2 * n)
            reasons += judged(tally, (_num(r["taylor_lower"]), _num(r["taylor_upper"])),
                              (tay[2 * n - 1], tay[2 * n]), what)
        elif r["taylor_lower"] not in ("", None) or r["taylor_upper"] not in ("", None):
            reasons.append("malformed:taylor")
    return CliCheck(reasons, len(rows))


# --- workloads --------------------------------------------------------------

def measure_setup(kids: Children, workload: str, report: Report) -> None:
    """Median set-up time, each run scaled by the startup reference run just
    before it."""
    args = SETUP_ARGV[workload]
    kids.run(args)  # warm-up: page cache and bytecode files, which users pay once
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        ref = kids.run(STARTUP_REF_ARGV).wall_s
        child = kids.run(args)
        if child.code != 0:
            report.tally.broken.append(f"setup exited {child.code}")
        times.append(child.wall_s)
        scaled.append(child.wall_s / ref * REF_NOMINAL_S["startup"])
    report.e2e["setup_s"] = statistics.median(scaled)
    report.name("setup_s", report.e2e["setup_s"], "s",
                f"median of {SETUP_REPS} fresh interpreters, speed-scaled; raw median {statistics.median(times):.4f} s")


def measure_startup(kids: Children, extra: dict) -> None:
    """startup.* layer metrics from `python -X importtime -c "import chebbound"`."""
    runs = []
    for _ in range(STARTUP_REPS):
        child = kids.run(["-X", "importtime", "-c", "import chebbound"])
        cum, self_cb = {}, 0
        for line in child.err.decode().splitlines():
            parts = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            own, total, name = int(parts[0]), int(parts[1]), parts[2].strip()
            cum[name] = max(cum.get(name, 0), total)
            if name == "chebbound" or name.startswith("chebbound."):
                self_cb += own
        runs.append({
            "startup.import_ms": cum.get("chebbound", 0) / 1e3,
            "startup.numpy_ms": cum.get("numpy", 0) / 1e3,
            "startup.mpmath_ms": cum.get("mpmath", 0) / 1e3,
            "startup.chebbound_self_ms": self_cb / 1e3,
        })
    for key in runs[0]:
        extra[key] = statistics.median(r[key] for r in runs)
    extra["startup.interpreter_ms"] = statistics.median(
        kids.run(["-c", "pass"]).wall_s * 1e3 for _ in range(STARTUP_REPS))


def speed_scaled(times_s: list, ref_s: list, ref_kind: str) -> float:
    """Median over rounds of a round's time divided by the reference timed
    next to it, in seconds on the reference machine (REF_NOMINAL_S)."""
    return statistics.median(t / r for t, r in zip(times_s, ref_s)) * REF_NOMINAL_S[ref_kind]


def sampled_s(data: dict) -> float:
    """The CLI's own time in a speed-sampled run (cli_child.py), in seconds
    on the reference machine: its time over the mean sample, times the
    nominal sample.  A run too short to be sampled is taken as measured."""
    if not data["refs"]:
        return data["main_ns"] * 1e-9
    return data["main_ns"] / (data["ref_ns"] / data["refs"]) * REF_NOMINAL_S["format"]


def gated(report: Report, ops_s: float, n_ops: int, items: int, items_s: float, item_unit: str,
          rss_mb: float, rounds: str) -> None:
    """The BENCHMARK.json metrics from speed-scaled round times: ``ops_s``
    for the round's ``n_ops`` ops, ``items_s`` for its ``items``."""
    report.e2e["op_mean_ms"] = ops_s / n_ops * 1e3
    report.e2e["items_per_s"] = items / items_s
    report.e2e["peak_rss_mb"] = rss_mb
    report.name("op_mean_ms", report.e2e["op_mean_ms"], "ms", f"{n_ops} ops a round, {rounds}, speed-scaled")
    report.name("items_per_s", report.e2e["items_per_s"], "1/s", f"{items} {item_unit} a round, speed-scaled")
    report.name("peak_rss_mb", rss_mb, "MB", "largest max RSS of a child")


def raw_latency(report: Report, prefix: str, unit: str, scale: float, values_s: list) -> None:
    """Workload-named p50 and tail over the run's executions."""
    pct, tail_v, n = tail(values_s)
    report.name(f"{prefix}_p50_{unit}", statistics.median(values_s) * scale, unit, f"n={n}")
    if tail_v is None:
        report.name(f"{prefix}_tail_{unit}", None, unit, f"n/a: n={n} <= 10")
    else:
        report.name(f"{prefix}_tail_{unit}", tail_v * scale, unit, f"p{pct:.3f}, n={n}")


def fail_lines(report: Report) -> None:
    t = report.tally
    report.name("fail_frac", t.fail_frac, "ratio", f"{t.failed} of {t.attempted} ops; {dict(t.reasons)}")
    report.name("known_defect_frac", t.known_frac, "ratio",
                f"{t.known_failed} of {t.known} checked values on known-defect inputs; {dict(t.known_reasons)}")
    if report.workload != "certify":
        report.name("bracket_miss_frac", t.miss_frac, "ratio", f"{t.misses} of {t.pairs} pairs")


def _mismatches(report: Report, result: dict) -> None:
    if result.get("mismatches"):
        report.tally.broken.append(f"{result['mismatches']} repeated executions changed their output")


# scalar ---------------------------------------------------------------------

def check_scalar(tally: Tally, seed: int, result: dict) -> None:
    """Check every call of the round once; repeats count with the same
    outcome.  The known-defect calls, when the pass ran them, count apart."""
    rounds = len(result["round_ns"])
    for i, (kind, n, x, edge) in enumerate(workloads.scalar_round(seed)):
        lo, hi = result["lower"][i], result["upper"][i]
        err = result["errors"].get(str(i))
        what = f"scalar {kind}({n}, {x!r})"
        if err:
            reasons = [err]
        else:
            reasons = check_pair(tally, lo, hi, x, *workloads.scalar_refs(kind, n, x), rounds, what)
        tally.op(reasons, edge, what, rounds)
    for (kind, n, x, edge), (lo, hi, err) in zip(workloads.scalar_probe(seed), result.get("probe", [])):
        verdicts = [err, err] if err else list(map(oracle.judge, (lo, hi), workloads.scalar_refs(kind, n, x)))
        tally.known_checks(verdicts, edge, f"scalar {kind}({n}, {x!r})")


def run_scalar(kids: Children, seed: int, seconds: int, trace: bool) -> Report:
    report = Report("scalar", Tally())
    if trace:
        return traced_run(kids, report, seconds, worker_pass(kids, "scalar", seed, lambda r: sum(r["sample_ns"])),
                          first_only(lambda r: check_scalar(report.tally, seed, r)))
    measure_setup(kids, "scalar", report)
    result, child = kids.worker("scalar", seed, seconds=seconds, probe=True)
    check_scalar(report.tally, seed, result)
    _mismatches(report, result)
    every = [t * 1e-9 for t in result["sample_ns"]]
    calls, rounds = workloads.SCALAR_ROUND, len(result["round_ns"])
    report.name("scalar_calls_per_s", len(every) / sum(every), "calls/s",
                f"executions of the first {len(every) // calls} of {rounds} rounds, {sum(every):.3f} s busy")
    raw_latency(report, "scalar", "us", 1e6, every)
    scaled = speed_scaled([t * 1e-9 for t in result["round_ns"]], [t * 1e-9 for t in result["ref_ns"]], "ufunc")
    gated(report, scaled, calls, calls, scaled, "calls", child.maxrss_mb, f"median of {rounds} rounds")
    fail_lines(report)
    return report


# grid -----------------------------------------------------------------------

_grid = lru_cache(maxsize=None)(workloads.make_grid)


def check_grid(tally: Tally, seed: int, result: dict) -> None:
    rnd = workloads.grid_round(seed)
    rounds = len(result["dt_ns"][0])
    xs = {g: _grid(g)[idx].tolist() for g, idx in rnd["samples"].items()}
    top = max(d for _, d, _ in rnd["ops"])
    cheb = {g: [oracle.partial_sums(x, top) for x in xs[g]] for g in xs}
    tay = {g: [oracle.taylor_sums(x, top) for x in xs[g]] for g in xs}
    values = {}
    for (kind, degree, g), samples, points in zip(rnd["ops"], result["samples"], result["points"]):
        values[(kind, degree, g)] = samples
        reasons = [] if points == workloads.GRID_POINTS else ["malformed:points"]
        for j, (x, v) in enumerate(zip(xs[g], samples)):
            if kind == "clenshaw":
                ref = cheb[g][j][degree]
            elif kind == "taylor":
                ref = tay[g][j][degree]
            elif kind == "T":
                ref = oracle.cheb_t(degree, x)
            else:
                ref = oracle.cheb_u(degree, x)
            reasons += judged(tally, [v], [ref], f"grid {kind}({degree}) at x={x!r}")
        tally.op(reasons, False, f"grid {kind}({degree}) on {g}", rounds)
    for (kind, degree, g), lower in values.items():
        if kind in ("clenshaw", "taylor") and degree % 2 == 1:
            for x, lo, hi in zip(xs[g], lower, values[(kind, degree + 1, g)]):
                tally.bracket(oracle.contains(lo, hi, x), rounds)


def run_grid(kids: Children, seed: int, seconds: int, trace: bool) -> Report:
    report = Report("grid", Tally())
    report.notes.append(f"each grid array is {workloads.GRID_POINTS * 8 / 2**20:.1f} MiB of float64; "
                        f"caches: {_caches()}")
    if trace:
        return traced_run(kids, report, seconds, worker_pass(kids, "grid", seed, lambda r: sum(map(sum, r["dt_ns"]))),
                          first_only(lambda r: check_grid(report.tally, seed, r)))
    measure_setup(kids, "grid", report)
    result, child = kids.worker("grid", seed, seconds=seconds)
    check_grid(report.tally, seed, result)
    _mismatches(report, result)
    dts, rounds = result["dt_ns"], len(result["dt_ns"][0])
    every = [t * 1e-9 for ts in dts for t in ts]
    points = sum(result["points"])
    report.name("grid_points_per_s", points * rounds / sum(every), "points/s",
                f"all executions: {len(dts)} calls x {rounds} rounds in {sum(every):.3f} s busy")
    report.name("grid_peak_rss_mb", child.maxrss_mb, "MB", "worker max RSS")
    raw_latency(report, "grid_call", "ms", 1e3, every)
    round_s = [sum(ts[r] for ts in dts) * 1e-9 for r in range(rounds)]
    round_ref = [statistics.fmean(ts[r] for ts in result["ref_ns"]) * 1e-9 for r in range(rounds)]
    scaled = speed_scaled(round_s, round_ref, "numpy")
    gated(report, scaled, len(dts), points, scaled, "points", child.maxrss_mb, f"median of {rounds} rounds")
    report.notes.append(f"oracle checked {workloads.GRID_SAMPLES} seeded points per grid")
    fail_lines(report)
    return report


# certify --------------------------------------------------------------------

def _certify_digest(out: dict) -> str:
    return hashlib.sha256(json.dumps({k: out.get(k) for k in ("red", "closed", "agree", "scan", "verdict", "error")},
                                     sort_keys=True).encode()).hexdigest()


def check_certify(tally: Tally, result: dict, first: dict | None) -> None:
    """Check one repetition against the oracle, or against the first one."""
    for key, out in result["degrees"].items():
        n = int(key)
        if first is not None:
            if _certify_digest(out) != _certify_digest(first["degrees"][key]):
                tally.broken.append(f"certify degree {n} changed between repetitions")
            tally.op(first["reasons"][key], False, f"certify degree {n}")
            continue
        if "error" in out:
            reasons = [out["error"]]
        else:
            refs = oracle.certificate_refs(n)
            if len(out["red"]) != len(refs) or len(out["closed"]) != len(refs):
                reasons = ["malformed:length"]
            else:
                reasons = oracle.judge_all(out["red"] + out["closed"], refs + refs)
            if not out["agree"]:
                reasons.append("disagree")
            if not out["scan"]:
                reasons.append("scan")
            if out["verdict"] != "accepted":
                reasons.append("rejected")
        result.setdefault("reasons", {})[key] = reasons
        tally.op(reasons, False, f"certify degree {n}")


def run_certify(kids: Children, seed: int, seconds: int, trace: bool) -> Report:
    report = Report("certify", Tally())
    if trace:
        return traced_run(kids, report, seconds, worker_pass(kids, "certify", seed, lambda r: r["total_ns"]),
                          lambda plain, first: check_certify(report.tally, plain, first))
    measure_setup(kids, "certify", report)
    start, results, rss, longest = time.perf_counter(), [], 0.0, 0.0
    while not results or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        result, child = kids.worker("certify", seed, rep=len(results))
        longest = max(longest, time.perf_counter() - t0)
        results.append(result)
        rss = max(rss, child.maxrss_mb)
    totals, per_degree = [], {}
    for result in results:
        check_certify(report.tally, result, results[0] if result is not results[0] else None)
        totals.append(result["total_ns"] * 1e-9)
        for key, out in result["degrees"].items():
            per_degree.setdefault(key, []).append(out["dt_ns"] * 1e-9)
    report.name("certify_s", statistics.median(totals), "s",
                f"median of {len(totals)} cold repetitions over degrees 1..{workloads.CERTIFY_DEGREES}")
    raw_latency(report, "certify_degree", "ms", 1e3, [t for ts in per_degree.values() for t in ts])
    scaled = speed_scaled(totals, [sum(r["ref_ns"]) * 1e-9 for r in results], "mpmath")
    gated(report, scaled, workloads.CERTIFY_DEGREES, workloads.CERTIFY_DEGREES, scaled, "degrees", rss,
          f"median of {len(totals)} cold repetitions")
    fail_lines(report)
    return report


# cli ------------------------------------------------------------------------

def _run_cli_op(kids, argv, mode):
    """One CLI invocation: ``mode`` "plain" runs ``python -m chebbound``;
    "trace" and "sample" run it through cli_child.py and also return the
    JSON object that it appends to stderr (None when it is missing)."""
    if mode == "plain":
        return kids.run(["-m", "chebbound", *argv]), None
    child = kids.run([str(BENCH / "cli_child.py"), mode, *argv])
    lines = child.err.decode().splitlines()
    if lines and lines[-1].startswith(MARKER):
        return child, json.loads(lines[-1][len(MARKER):])
    return child, None


def cli_rounds(kids: Children, report: Report, seed: int, *, seconds=None, traced=False) -> dict:
    """Run the seeded CLI round once, or, given ``seconds``, as whole rounds
    while they fit, then rounds of the sweeps alone while they fit, then
    rounds of the small ops alone.  In that timed form the startup reference
    runs just before each small op, and each sweep runs speed-sampled
    (cli_child.py).  Each op is checked on its first execution; a later one
    that prints other bytes is noted."""
    ops = workloads.cli_round(seed)
    every = list(range(len(ops)))
    sweeps = [i for i in every if workloads.is_sweep(ops[i])]
    small = [i for i in every if i not in sweeps]
    times, refs, samples, longest = [[] for _ in ops], [[] for _ in ops], [[] for _ in ops], [0.0] * len(ops)
    digests, checks, spans, sweep_spans, missing, rss, bytes_out = {}, {}, [], [], set(), 0.0, 0

    def run_op(i):
        nonlocal rss, bytes_out
        argv, t0 = ops[i], time.perf_counter()
        mode = "trace" if traced else "plain"
        if seconds is not None and i in sweeps:
            mode = "sample"
        elif seconds is not None:
            # the host's speed drifts within seconds: a small op is scaled
            # by the startup reference run just before it
            refs[i].append(kids.run(STARTUP_REF_ARGV).wall_s)
        child, data = _run_cli_op(kids, argv, mode)
        longest[i] = max(longest[i], time.perf_counter() - t0)
        times[i].append(child.wall_s)
        rss = max(rss, child.maxrss_mb)
        if mode == "sample":
            if data is None:
                report.tally.broken.append(f"no speed samples from {' '.join(argv)}")
                data = {"main_ns": child.wall_s * 1e9, "ref_ns": 0, "refs": 0}
            samples[i].append(data)
        digest = hashlib.sha256(child.out).hexdigest()
        if i not in checks:
            checks[i] = check_cli(report.tally, argv, child, f"cli-check:{seed}:{i}")
            digests[" ".join(argv)] = digest
            bytes_out += len(child.out)
            if traced and data is not None:
                spans.append(data["spans"])
                missing.update(data["missing"])
                if i in sweeps:
                    sweep_spans.append(data["spans"])
            elif traced:
                report.tally.broken.append(f"no spans from traced run of {' '.join(argv)}")
        elif digests[" ".join(argv)] != digest:
            report.notes.append(f"stdout changed between identical runs of {' '.join(argv)}")

    start = time.perf_counter()
    for i in every:
        run_op(i)
    if seconds is not None:
        for kind in (every, sweeps, small):
            while time.perf_counter() - start + sum(longest[i] for i in kind) <= seconds:
                for i in kind:
                    run_op(i)
    for i, argv in enumerate(ops):
        report.tally.op(checks[i].reasons, False, "chebbound " + " ".join(argv), len(times[i]))
    return {"ops": ops, "sweeps": sweeps, "small": small, "times": times, "refs": refs, "samples": samples,
            "checks": checks, "digests": digests, "rss": rss, "spans": spans, "sweep_spans": sweep_spans,
            "missing": sorted(missing), "bytes_out": bytes_out, "busy_s": sum(t[0] for t in times)}


def run_cli(kids: Children, seed: int, seconds: int, trace: bool) -> Report:
    report = Report("cli", Tally())
    if trace:
        # cli_rounds checks every op as it runs, so the pairs need no check
        return traced_run(kids, report, seconds, cli_pass(kids, report, seed), lambda plain, first: None,
                          cli_layer_extra)
    measure_setup(kids, "cli", report)
    r = cli_rounds(kids, report, seed, seconds=seconds)
    sweeps, small = r["sweeps"], r["small"]
    rows = sum(r["checks"][i].rows for i in sweeps)
    sweep_wall = [t - d["ref_ns"] * 1e-9 for i in sweeps for t, d in zip(r["times"][i], r["samples"][i])]
    report.name("cli_sweep_rows_per_s", rows * len(sweep_wall) / len(sweeps) / sum(sweep_wall), "rows/s",
                f"all executions: {len(sweeps)} sweeps of {rows // len(sweeps)} rows, {len(sweep_wall)} runs, "
                "speed samples taken out")
    report.name("cli_peak_rss_mb", r["rss"], "MB", "largest child max RSS")
    raw_latency(report, "cli_small", "ms", 1e3, [t for i in small for t in r["times"][i]])
    # an op is a small invocation, scaled by the startup reference run just
    # before it; items are sweep rows, over the sweeps' own time in-process
    # scaled by the speed samples taken during each sweep
    rounds, reps = len(r["times"][small[0]]), len(r["times"][sweeps[0]])
    small_s = speed_scaled([sum(r["times"][i][k] for i in small) for k in range(rounds)],
                           [statistics.fmean(r["refs"][i][k] for i in small) for k in range(rounds)], "startup")
    sweep_s = statistics.median(sum(sampled_s(r["samples"][i][k]) for i in sweeps) for k in range(reps))
    gated(report, small_s, len(small), rows, sweep_s, "sweep rows", r["rss"],
          f"median of {rounds} rounds; sweeps: median of {reps} rounds")
    fail_lines(report)
    report.notes.append("stdout sha256 " + json.dumps(r["digests"], sort_keys=True))
    return report


def cli_pass(kids: Children, report: Report, seed: int):
    """Passes of the CLI workload: one whole round."""
    def one(rep, traced):
        r = cli_rounds(kids, report, seed, traced=traced)
        return Pass(r["busy_s"], json.dumps(r["digests"], sort_keys=True), r["spans"], r["missing"], r)
    return one


def cli_layer_extra(first: dict) -> dict:
    """cli.* metrics computed outside the spans, from a traced CLI round."""
    sweep_rows = sum(c.rows for i, c in first["checks"].items() if workloads.is_sweep(first["ops"][i]))
    sweep_self = tracer.aggregate(first["sweep_spans"]).get("cli.main", {}).get("self_ns", 0)
    return {"cli.bytes_out": first["bytes_out"],
            "cli.self_us_per_row": sweep_self * 1e-3 / sweep_rows if sweep_rows else 0.0}


# traced runs ------------------------------------------------------------------

@dataclass
class Pass:
    """One untraced or traced pass over a workload's seeded round."""
    busy_s: float
    outputs: str   # what tracing must not change
    spans: list    # one span list per traced process
    missing: list  # traced functions that have left the package
    result: dict   # what the checks read


def _outputs(result) -> str:
    """A result with its timings dropped, for comparing outputs."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items()
                    if k not in ("dt_ns", "total_ns", "round_ns", "sample_ns", "ref_ns")}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v
    return json.dumps(strip(result), sort_keys=True)


def worker_pass(kids: Children, workload: str, seed: int, busy_ns):
    """Passes of scalar, grid or certify: one round (certify: repetition
    ``rep``) in a fresh worker."""
    def one(rep, traced):
        result, _ = kids.worker(workload, seed, rounds=1, rep=rep, trace=traced)
        spans = [result.pop("spans")] if traced else []
        missing = result.pop("missing", [])
        return Pass(busy_ns(result) * 1e-9, _outputs(result), spans, missing, result)
    return one


def first_only(check):
    """A pass check for workloads whose passes repeat one round: the first
    untraced pass is checked once."""
    def run(plain, first):
        if first is None:
            check(plain)
    return run


def traced_run(kids, report, seconds, one_pass, check, layer_extra=None) -> Report:
    """Untraced and traced passes, ``one_pass(rep, traced)``, in pairs while
    time allows.  ``check(plain, first_plain)`` checks each untraced pass;
    tracing must not change the outputs.  Spans of the first traced pass,
    with ``layer_extra`` of its result, give the layer metrics."""
    extra = {}
    measure_startup(kids, extra)
    start, longest, walls, traced_walls = time.perf_counter(), 0.0, [], []
    first = first_traced = None
    while not walls or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        plain, traced = one_pass(len(walls), False), one_pass(len(walls), True)
        longest = max(longest, time.perf_counter() - t0)
        if plain.outputs != traced.outputs:
            report.tally.broken.append("traced outputs differ from untraced")
        report.missing = sorted(set(report.missing) | set(traced.missing))
        walls.append(plain.busy_s)
        traced_walls.append(traced.busy_s)
        check(plain.result, first.result if first else None)
        first, first_traced = first or plain, first_traced or traced
    if layer_extra is not None:
        extra.update(layer_extra(first_traced.result))
    extra["trace.spans"] = sum(len(s) for s in first_traced.spans)
    extra["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    report.layers, report.missing = tracer.layer_metrics(first_traced.spans, extra, set(report.missing))
    report.notes.append(f"{len(walls)} untraced/traced pass pair(s); busy time median "
                        f"{statistics.median(walls):.3f} s untraced, {statistics.median(traced_walls):.3f} s traced")
    fail_lines(report)
    return report


# --- environment and output ---------------------------------------------------

def _caches() -> str:
    """Cache sizes of CPU 0 as the kernel reports them ("unknown" if absent)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    parts = []
    try:
        for idx in sorted(base.glob("index*")):
            kind = (idx / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
            shared = (idx / "shared_cpu_list").read_text().strip()
            parts.append(f"L{level} {size} (cpus {shared})")
    except OSError:
        pass
    return ", ".join(parts) or "unknown"


def environment() -> str:
    import importlib.util

    import mpmath

    numba = "importable" if importlib.util.find_spec("numba") else "absent"
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, mpmath {mpmath.__version__}, "
            f"numba {numba}, nproc {os.cpu_count()}, caches: {_caches()}")


RUNS = {"cli": run_cli, "scalar": run_scalar, "grid": run_grid, "certify": run_certify}


def print_report(report: Report, trace: bool) -> None:
    print(f"== workload {report.workload} ({'traced' if trace else 'end to end'})")
    for name, value, unit, detail in report.named:
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name} = {shown}" + (f"  [{detail}]" if detail else ""))
    for name, m in report.layers.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in report.missing:
        print(f"  {name} = missing (function no longer in the package)")
    for line in report.notes:
        print(f"  note: {line}")
    for line in report.tally.broken:
        print(f"  broken: {line}")


def metrics_of(report: Report, trace: bool) -> dict:
    if trace:
        return report.layers
    return {k: {"value": report.e2e[k], "unit": unit} for k, unit in E2E_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "chebbound" / "__init__.py").is_file():
        print(f"perfbench: no chebbound package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print(f"perfbench seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"environment: {environment()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    kids = Children()
    try:
        for name in names:
            report = RUNS[name](kids, args.seed, args.seconds, trace)
            print_report(report, trace)
            reports.append(report)
    finally:
        kids.close()
    if len(reports) == 1:
        metrics = metrics_of(reports[0], trace)
    else:
        metrics = {f"{r.workload}.{k}": v for r in reports for k, v in metrics_of(r, trace).items()}
    result = {
        "correct": not any(r.tally.broken for r in reports),
        "attempted": sum(r.tally.attempted for r in reports),
        "failed": sum(r.tally.failed for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
