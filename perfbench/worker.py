"""One in-process pass of the scalar, grid or certify workload.

Run in a fresh interpreter by ``run.py``:

    python perfbench/worker.py '{"workload": "grid", "seed": 3, "seconds": 20,
                                 "rounds": null, "trace": false, "rep": 0}'

scalar and grid repeat their seeded round (workloads.py) as whole rounds
while the next one should end within ``seconds``, or exactly ``rounds``
times; certify runs the one repetition numbered ``rep``.  With ``trace``
the tracer wraps the package first.  The pass prints one JSON object: op
times (grid: every execution; scalar: each round's total plus a sample of
executions), the machine-speed reference timed through each round (grid:
before each call), the
outputs of the first round (the parent checks them), how many later
executions gave different outputs, and the spans when traced.  With
``probe`` the scalar pass also runs its known-defect calls once, untimed.
"""

from __future__ import annotations

import json
import math
import sys
import time

import workloads
from tracer import Tracer

clock = time.perf_counter_ns


def _rounds(spec):
    """Round numbers: a fixed count, or whole rounds that fit the time box."""
    start, longest, r = clock(), 0, 0
    while True:
        if spec["rounds"] is not None:
            if r >= spec["rounds"]:
                return
        elif r > 0 and (clock() - start + longest) * 1e-9 > spec["seconds"]:
            return
        t = clock()
        yield r
        longest = max(longest, clock() - t)
        r += 1


# Machine-speed references: fixed work that does not touch chebbound, timed
# next to the measured work: in slices through each round (scalar: before
# every SCALAR_REF_EVERY calls; certify: before every CERTIFY_REF_EVERY
# degrees), and before every call of grid.
# run.py divides the gated times by the reference timed next to them, which
# cancels most of the host's speed drift.  Each is shaped like the work it
# sits next to, because the host's drift hits kinds of work unequally.
def reference_mpmath() -> int:
    """300 terms of a 40-digit mpmath series: the multiprecision arithmetic
    that the certificate's Bessel sums pay."""
    import mpmath

    t0 = clock()
    with mpmath.workdps(40):
        total, term, x = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(-3.5)
        for k in range(1, 300):
            term = term * x / k
            total += term
    return clock() - t0


def reference_ufunc() -> int:
    """A degree-24 Clenshaw-shaped recurrence on one-element arrays, 20
    times: the per-call ufunc overhead that single-point calls pay."""
    import numpy as np

    xs, coeffs = np.array([-1.7]), np.linspace(1.0, 0.01, 25)
    t0 = clock()
    for _ in range(20):
        b1, b2 = np.zeros_like(xs), np.zeros_like(xs)
        for k in range(24, 0, -1):
            b1, b2 = coeffs[k] + 2.0 * xs * b1 - b2, b1
        float((coeffs[0] + xs * b1 - b2)[0])
    return clock() - t0


def reference_numpy(xs, buf) -> int:
    import numpy as np

    t0 = clock()
    for _ in range(4):
        np.multiply(xs, 1.0000001, out=buf)
        np.add(buf, xs, out=buf)
    return clock() - t0


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


# execution times kept for the raw percentiles; later rounds add only their
# total, so the worker's memory does not grow with speed
SCALAR_SAMPLE_ROUNDS = 10
# a round's reference is timed in slices between its calls, so that it
# samples the host's speed all through the round
SCALAR_REF_EVERY = 250


def _scalar_call(cb, kind, n, x):
    """(lower, upper, error or None, ns) of one single-point call."""
    # looked up on each call so that the tracer's wrapper is used
    fn, degree = (cb.cheb_sandwich, n) if kind == "cheb" else (cb.taylor_sandwich, 2 * n - 1)
    err = None
    t0 = clock()
    try:
        enc = fn(degree, x)
    except Exception as exc:  # a failed op is recorded, and the pass goes on
        t1 = clock()
        return math.nan, math.nan, f"raised:{type(exc).__name__}", t1 - t0
    t1 = clock()
    want = (2 * n - 1, 2 * n) if kind == "cheb" else (degree, degree + 1)
    if (enc.lower_degree, enc.upper_degree) != want:
        err = "malformed:degrees"
    return enc.lower, enc.upper, err, t1 - t0


def _scalar(cb, spec):
    ops = workloads.scalar_round(spec["seed"])
    round_ns, sample = [], []
    lower, upper, errors, mismatches, ref = [], [], {}, 0, []
    for r in _rounds(spec):
        ref.append(0)
        round_ns.append(0)
        for i, (kind, n, x, _edge) in enumerate(ops):
            if i % SCALAR_REF_EVERY == 0:
                ref[r] += reference_ufunc()
            lo, hi, err, dt = _scalar_call(cb, kind, n, x)
            round_ns[r] += dt
            if r < SCALAR_SAMPLE_ROUNDS:
                sample.append(dt)
            if r == 0:
                lower.append(lo)
                upper.append(hi)
                if err:
                    errors[i] = err
            elif not (_same(lo, lower[i]) and _same(hi, upper[i]) and err == errors.get(i)):
                mismatches += 1
    result = {"round_ns": round_ns, "sample_ns": sample, "ref_ns": ref, "lower": lower,
              "upper": upper, "errors": errors, "mismatches": mismatches}
    if spec.get("probe"):
        # the known-defect inputs, once and untimed, after the timed rounds
        result["probe"] = [list(_scalar_call(cb, kind, n, x)[:3]) for kind, n, x, _ in
                           workloads.scalar_probe(spec["seed"])]
    return result


def _grid_call(cb, kind, degree, xs):
    if kind == "clenshaw":
        return cb.clenshaw_eval(cb.partial_sum(degree), xs)
    if kind == "taylor":
        return cb.taylor_eval(degree, xs)
    if kind == "T":
        return cb.eval_T(degree, xs)
    return cb.eval_U(degree, xs)


def _grid(cb, spec):
    import numpy as np

    grids = {g: workloads.make_grid(g) for g in workloads.GRID_KINDS}
    rnd = workloads.grid_round(spec["seed"])
    idx = {g: np.array(s) for g, s in rnd["samples"].items()}
    dt, ref = [[] for _ in rnd["ops"]], [[] for _ in rnd["ops"]]
    samples, points, mismatches = [], [], 0
    buf = np.empty_like(grids["linear"])
    for r in _rounds(spec):
        for i, (kind, degree, g) in enumerate(rnd["ops"]):
            # the host's speed drifts within a round: each call gets its own
            ref[i].append(reference_numpy(grids["linear"], buf))
            t0 = clock()
            out = _grid_call(cb, kind, degree, grids[g])
            dt[i].append(clock() - t0)
            sample = out[idx[g]].tolist()
            if r == 0:
                samples.append(sample)
                points.append(int(out.size))
            elif not all(map(_same, sample, samples[i])):
                mismatches += 1
            del out
    return {"dt_ns": dt, "samples": samples, "points": points, "ref_ns": ref, "mismatches": mismatches}


# as SCALAR_REF_EVERY, for the degrees of a certify repetition
CERTIFY_REF_EVERY = 4


def _certify(cb, spec):
    import numpy as np

    x_min, points = workloads.CERTIFY_SCAN
    degrees, ref, total = {}, [], 0
    for i, n in enumerate(workloads.certify_order(spec["seed"], spec["rep"])):
        if i % CERTIFY_REF_EVERY == 0:
            ref.append(reference_mpmath())
        t0 = clock()
        try:
            red = cb.build_G_via_reduction(n).coeffs
            closed = cb.build_G_closed_form(n).coeffs
            agree = bool(np.all(np.abs(red - closed) <= 1e-12 * np.abs(closed)))
            scan = cb.grid_sign_scan(n, x_min, points)
            verdict = cb.sign_certificate(n).verdict
        except Exception as exc:  # a failed degree is recorded, and the pass goes on
            dt = clock() - t0
            degrees[n] = {"dt_ns": dt, "error": f"raised:{type(exc).__name__}"}
        else:
            dt = clock() - t0
            degrees[n] = {"dt_ns": dt, "red": red.tolist(), "closed": closed.tolist(),
                          "agree": agree, "scan": bool(scan), "verdict": verdict}
        total += dt
    return {"total_ns": total, "degrees": degrees, "ref_ns": ref}


RUNNERS = {"scalar": _scalar, "grid": _grid, "certify": _certify}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import chebbound

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    result = RUNNERS[spec["workload"]](chebbound, spec)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
