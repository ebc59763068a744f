"""The names the benchmark's tracer looks up in the package.

``perfbench/tracer.py`` times the package from outside: it wraps each
function of its ``TARGETS`` in every ``chebbound`` namespace that holds it,
and reports a per-layer metric as missing when its function is gone.  These
tests read the tracer and ``BENCHMARK.json`` without changing them, so a
renamed or deleted traced function fails here instead of silently dropping
a metric from the benchmark's result line.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(span):
    module, function = span.split(".")
    return getattr(importlib.import_module(f"chebbound.{module}"), function, None)


@pytest.mark.parametrize("metric", sorted(tracer.LAYER_METRICS))
def test_every_metric_span_is_a_package_function(metric):
    span = getattr(tracer.LAYER_METRICS[metric][1], "span", None)
    if span is not None:
        assert callable(_resolve(span)), f"{metric} reads spans of {span}, which the package lacks"


def test_every_benchmark_per_layer_metric_is_computed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(tracer.LAYER_METRICS)


def _traced_calls(body):
    """The spans recorded while ``body`` runs under the tracer, in call
    order, each as "span<caller>" (the caller is empty at the top level)."""
    # the tracer patches module namespaces, so a call that bypasses them
    # (a private copy, a renamed helper) would leave the metric at zero
    script = f"""
import sys
sys.path.insert(0, {str(TRACER.parent)!r})
import numpy as np
import chebbound
from tracer import Tracer
t = Tracer()
t.install()
{body}
print(" ".join(s[0] + "<" + (t.spans[s[3]][0] if s[3] >= 0 else "") for s in t.spans))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_the_bessel_spans_record_calls():
    calls = set(_traced_calls("""
chebbound.bessel_i(3, 1.0)
chebbound.build_G_closed_form(6)
chebbound.bessel._bessel_floors(151, chebbound.bessel._AT_ONE_BITS)
"""))
    # the table of I_k(1) is built at import, before a tracer can be
    # installed; rebuilt here, its sums must show through bessel's namespace
    assert {"bessel.bessel_i<", "bessel.series_sum<bessel.bessel_i",
            "bessel.series_sum<certificate.build_G_closed_form",
            "bessel.series_sum<"} <= calls


def test_the_kernel_spans_record_one_call_per_block():
    # arrays of two blocks and one point, and of 500 points: the evaluators
    # must call the kernels through the _kernels namespace, once per block
    for size, blocks in (("2 * chebbound._kernels.BLOCK + 1", 3), ("500", 1)):
        calls = Counter(_traced_calls(f"""
xs = np.linspace(-3.0, -1.0, {size})
chebbound.clenshaw_eval(chebbound.partial_sum(8), xs)
chebbound.eval_T(5, xs)
chebbound.eval_U(5, xs)
chebbound.taylor_eval(8, xs)
"""))
        kernel_spans = {span: n for span, n in calls.items() if span.startswith("_kernels.")}
        assert kernel_spans == {
            "_kernels.clenshaw_kernel<chebpoly.clenshaw_eval": blocks,
            "_kernels.clenshaw_kernel<chebpoly.eval_T": blocks,
            "_kernels.clenshaw_kernel<chebpoly.eval_U": blocks,
            "_kernels.taylor_kernel<expseries.taylor_eval": blocks,
        }, (size, calls)
