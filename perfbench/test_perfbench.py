"""Tests of the benchmark itself: oracle, seeded inputs, metric names, checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import oracle
import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _floats_around(value) -> tuple[float, float]:
    """The two adjacent floats on either side of a non-float value."""
    f = float(value)
    if mp.mpf(f) < value:
        return f, math.nextafter(f, math.inf)
    return math.nextafter(f, -math.inf), f


@pytest.mark.parametrize("x", [-1.000001, -5.0, -37.25, -7000.0])
def test_oracle_flags_bracket_one_ulp_past_exp(x):
    lo, hi = _floats_around(oracle.exp40(x))
    assert oracle.contains(lo, hi, x)
    assert not oracle.contains(hi, hi, x)  # lower bound one ulp above exp(x)
    assert not oracle.contains(lo, lo, x)  # upper bound one ulp below exp(x)
    assert not oracle.contains(math.nan, hi, x)


def test_oracle_partial_sums_track_exp_coefficients():
    x = -1.0 - 1e-12
    sums = oracle.partial_sums(x, 40)
    # next to -1 the truncations converge to exp(x) long before degree 40
    with mp.workdps(40):
        assert abs(sums[40].value - oracle.exp40(x)) < mp.mpf(10) ** -35
    assert oracle.judge(float(sums[3]), sums[3]) is None
    assert oracle.judge(float(sums[3]) * (1 + 1e-8), sums[3]) == "wrong"
    assert oracle.judge(math.nan, sums[3]) == "nan"


def test_oracle_tells_rounding_noise_from_a_wrong_value():
    # at x = -30 the terms of the degree-60 sum reach 1e12 while the sum is
    # exp(-30) ~ 1e-13: a float evaluation can miss by far more than 1e-9
    x, d = -30.0, 60
    cheb, tay = oracle.partial_sums(x, d), oracle.taylor_sums(x, d)
    for ref in (cheb[d], tay[d]):
        miss = oracle.noise_bound(ref) / 2
        assert miss > 1e3 * oracle.TRACK_RTOL * max(1.0, abs(float(ref)))
        assert oracle.judge(float(ref) + miss, ref) == "stray"
        assert oracle.judge(float(ref) + 1e3 * oracle.noise_bound(ref), ref) == "wrong"
    # a term lost or bounds swapped: the miss is the size of a term
    assert oracle.judge(float(cheb[d - 1]), cheb[d]) == "wrong"
    assert oracle.judge(float(tay[d - 1]), tay[d]) == "wrong"
    t, u = oracle.cheb_t(50, -1.5), oracle.cheb_u(50, -1.5)
    assert oracle.judge(float(t), t) is None and oracle.judge(float(u), u) is None
    assert oracle.judge(float(oracle.cheb_t(49, -1.5)), t) == "wrong"


def _first(workload: str, seed: int):
    streams = {
        "scalar": workloads.scalar_round,
        "grid": workloads.grid_round,
        "certify": lambda s: workloads.certify_order(s, 0),
        "cli": workloads.cli_round,
    }
    return streams[workload](seed)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


def test_grid_rounds_have_equal_cost_across_seeds():
    def degree_sum(rnd):
        return sum(d for kind, d, _ in rnd["ops"])

    sums = {degree_sum(_first("grid", seed)) for seed in range(20)}
    assert len(sums) == 1


def test_cli_round_has_every_small_kind_and_each_sweep_option():
    ops = _first("cli", 3)
    small = {(argv[0], argv[-1]) for argv in ops if not workloads.is_sweep(argv)}
    assert len(small) == len(workloads.SMALL_COMMANDS) * len(workloads.FORMATS)
    sweeps = [argv for argv in ops if workloads.is_sweep(argv)]
    kinds = {(a[a.index("--format") + 1], "--with-taylor" in a, "--log-grid" in a) for a in sweeps}
    assert {k[0] for k in kinds} == {"csv", "json"}
    assert {k[1] for k in kinds} == {False, True}
    assert {k[2] for k in kinds} == {False, True}
    # negative floats are passed as --flag=value
    assert not any(a.startswith("-") and a[1:2].isdigit() for argv in ops for a in argv)


def test_end_to_end_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.E2E_UNITS
    assert declared["setup_s"] == "s"


def test_per_layer_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed, absent = tracer.layer_metrics([], {}, set())
    assert absent == []
    assert {k: v["unit"] for k, v in printed.items()} == declared


def test_benchmark_json_workloads_and_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]


def test_missing_function_is_reported_not_fatal():
    printed, absent = tracer.layer_metrics([], {}, {"certificate.build_G_closed_form"})
    assert "certificate.build_G_closed_form.calls" in absent
    assert "certificate.build_G_closed_form.calls" not in printed
    assert "certificate.build_G_via_reduction.calls" in printed


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value, n = run.tail(values)
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(v > value for v in values) == 10
    pct, value, _ = run.tail(list(range(20_000)))
    assert (pct, value) == (99.95, 19_989)
    assert run.tail(list(range(11)))[1] == 0
    assert run.tail(list(range(10))) == (None, None, 10)


def test_aggregate_self_and_busy_time():
    spans = [
        ["cli.main", 0, 100, -1, None],
        ["expseries.partial_sum", 10, 30, 0, None],
        ["chebpoly.clenshaw_eval", 40, 90, 0, (1000, 8, None)],
        ["_kernels.clenshaw_kernel", 45, 85, 2, (1000, 8, None)],
    ]
    stats = tracer.aggregate([spans])
    assert stats["cli.main"]["busy_ns"] == 100
    assert stats["cli.main"]["self_ns"] == 30
    assert stats["chebpoly.clenshaw_eval"]["self_ns"] == 10
    assert stats["chebpoly.clenshaw_eval"]["point_degrees"] == 8000


def _child(text: str, code: int = 0) -> run.Child:
    return run.Child(code, text.encode(), b"", 0.1, 30.0)


def test_cli_checks_flag_bad_exit_and_malformed_tables():
    argv = ["coeffs", "--n", "3", "--format", "csv"]
    good = "index,a\n" + "".join(f"{i},{float(a)!r}\n" for i, a in enumerate(oracle.exp_coeffs(3)))
    tally = run.Tally()
    assert run.check_cli(tally, argv, _child(good), "s").reasons == []
    assert run.check_cli(tally, argv, _child(good, code=2), "s").reasons == ["exit:2"]
    assert run.check_cli(tally, argv, _child(good[:-1]), "s").reasons[0].startswith("malformed")
    assert run.check_cli(tally, argv, _child(good.replace("index,a", "i,a")), "s").reasons[0].startswith("malformed")
    short = "\n".join(good.split("\n")[:-2]) + "\n"
    assert run.check_cli(tally, argv, _child(short), "s").reasons == ["malformed:rows"]
    nudged = good.replace(good.split("\n")[2].split(",")[1], repr(float(oracle.exp_coeffs(3)[1]) * (1 + 1e-6)))
    assert run.check_cli(tally, argv, _child(nudged), "s").reasons == ["wrong"]


def test_enclose_check_counts_a_miss_for_a_nudged_bracket():
    x = -5.0
    sums = oracle.partial_sums(x, 2)
    lo, hi = float(sums[1]), float(sums[2])
    argv = ["enclose", "--n", "1", f"--x={x!r}", "--format", "json"]
    row = {"x": x, "lower": lo, "upper": hi, "lower_degree": 1, "upper_degree": 2}
    tally = run.Tally()
    assert run.check_cli(tally, argv, _child(json.dumps(row)), "s").reasons == []
    assert (tally.pairs, tally.misses) == (1, 0)
    # an upper bound one ulp below the 40-digit exp(x)
    row["upper"] = _floats_around(oracle.exp40(x))[0]
    run.check_cli(tally, argv, _child(json.dumps(row)), "s")
    assert (tally.pairs, tally.misses) == (2, 1)


def test_wrong_value_breaks_the_run_and_a_stray_does_not():
    x, n = -30.0, 30
    sums = oracle.partial_sums(x, 2 * n)
    argv = ["enclose", "--n", str(n), f"--x={x!r}", "--format", "json"]
    row = {"x": x, "lower": float(sums[59]), "upper": float(sums[60]), "lower_degree": 59, "upper_degree": 60}
    # bounds swapped: finite, plausible and far off the oracle
    swapped = dict(row, lower=row["upper"], upper=row["lower"])
    # x = -30 at degree 60 is ill-conditioned: its values are known-defect
    # checks, counted apart from the op's own reasons
    assert not oracle.conditioned(sums[60])
    tally = run.Tally()
    reasons = run.check_cli(tally, argv, _child(json.dumps(swapped)), "s").reasons
    tally.op(reasons, what="enclose")
    assert reasons == [] and tally.known_reasons["wrong"] == 2 and tally.broken
    # a miss within the rounding noise is counted, and the run stays correct
    noisy = dict(row, upper=float(sums[60]) + oracle.noise_bound(sums[60]) / 2)
    tally = run.Tally()
    reasons = run.check_cli(tally, argv, _child(json.dumps(noisy)), "s").reasons
    tally.op(reasons, what="enclose")
    assert reasons == [] and tally.failed == 0 and tally.known_failed == 1 and not tally.broken
    # on a conditioned input the same miss fails the op
    x, n = -1.5, 3
    sums = oracle.partial_sums(x, 2 * n)
    assert oracle.conditioned(sums[5]) and oracle.conditioned(sums[6])
    argv = ["enclose", "--n", str(n), f"--x={x!r}", "--format", "json"]
    row = {"x": x, "lower": float(sums[5]), "upper": float(sums[6]) * (1 + 1e-8), "lower_degree": 5,
           "upper_degree": 6}
    tally = run.Tally()
    reasons = run.check_cli(tally, argv, _child(json.dumps(row)), "s").reasons
    tally.op(reasons, what="enclose")
    assert reasons == ["wrong"] and tally.failed == 1 and tally.broken and tally.known == 0


def test_scalar_timed_ops_are_conditioned_and_the_probe_holds_the_edge_share():
    seed = 4
    ops, probe = workloads.scalar_round(seed), workloads.scalar_probe(seed)
    assert len(ops) == workloads.SCALAR_ROUND
    assert not any(edge for *_, edge in ops)
    assert all(workloads.conditioned(kind, n, x) for kind, n, x, _ in ops[:200])
    edge = [op for op in probe if op[3]]
    ill = [op for op in probe if not op[3]]
    assert len(edge) == workloads.SCALAR_PROBE_EDGE and ill
    assert not any(workloads.conditioned(kind, n, x) for kind, n, x, _ in ill)
    assert any(math.isinf(x) for _, _, x, _ in edge)
    assert any(n > workloads.SCALAR_PAIRS[1] for _, n, _, _ in edge)


def test_known_defect_checks_stay_out_of_failed():
    tally = run.Tally()
    tally.known_checks(["nan", "nan"], edge=True, what="edge")
    tally.known_checks(["stray", None], what="ill")
    assert (tally.attempted, tally.failed, tally.known, tally.known_failed) == (0, 0, 4, 3)
    assert not tally.broken
    tally.known_checks(["wrong", None], what="ill")
    assert tally.broken


def test_scalar_check_breaks_on_a_value_far_off_the_oracle():
    seed = 5
    ops = workloads.scalar_round(seed)
    result = {"round_ns": [1], "lower": [], "upper": [], "errors": {}}
    for kind, n, x, edge in ops:
        sums = oracle.partial_sums(x, 2 * n) if kind == "cheb" else oracle.taylor_sums(x, 2 * n)
        result["lower"].append(float(sums[2 * n - 1]) if not edge else math.nan)
        result["upper"].append(float(sums[2 * n]) if not edge else math.nan)
    tally = run.Tally()
    run.check_scalar(tally, seed, result)
    assert not tally.broken
    i = next(i for i, (_, n, x, edge) in enumerate(ops) if not edge and x < -100)
    result["lower"][i] *= 1.001
    tally = run.Tally()
    run.check_scalar(tally, seed, result)
    assert tally.broken and "wrong" in tally.reasons


def test_tracer_wraps_the_namespaces_the_package_looks_up():
    code = (
        "import json, chebbound, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "chebbound.cheb_sandwich(3, -4.0)\n"
        "import chebbound.cli as cli\n"
        "cli.main(['enclose', '--n', '2', '--x=-3.0'])\n"
        "s = tracer.aggregate([t.spans])\n"
        "print(json.dumps({k: v['calls'] for k, v in s.items()}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.BENCH)]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         cwd=run.ROOT, timeout=120, check=True).stdout
    calls = json.loads(out.strip().splitlines()[-1])
    assert calls["expseries.cheb_sandwich"] == 2
    assert calls["cli.main"] == 1
    # looked up as chebbound.expseries.partial_sum and chebbound._kernels.clenshaw_kernel
    assert calls["expseries.partial_sum"] == 4
    assert calls["_kernels.clenshaw_kernel"] == 4


def test_sampled_cli_prints_what_the_cli_prints_and_its_samples():
    argv = ["sweep", "--n", "4", "--x-min=-30.0", "--x-max=-1.01", "--points", "20000", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    plain = subprocess.run([sys.executable, "-m", "chebbound", *argv], capture_output=True, env=env,
                           cwd=run.ROOT, timeout=120, check=True)
    sampled = subprocess.run([sys.executable, str(run.BENCH / "cli_child.py"), "sample", *argv],
                             capture_output=True, env=env, cwd=run.ROOT, timeout=120, check=True)
    assert sampled.stdout == plain.stdout
    last = sampled.stderr.decode().splitlines()[-1]
    assert last.startswith(run.MARKER)
    data = json.loads(last[len(run.MARKER):])
    assert data["refs"] >= 1 and data["ref_ns"] > 0 and data["main_ns"] > 0
    # scaled by the mean sample: a host twice as slow gives the same figure
    slow = {"main_ns": 2 * data["main_ns"], "ref_ns": 2 * data["ref_ns"], "refs": data["refs"]}
    assert run.sampled_s(slow) == pytest.approx(run.sampled_s(data))


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.BENCH).glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
