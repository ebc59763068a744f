"""Spans around calls into chebbound's public functions, recorded from outside.

``Tracer.install`` replaces each target function by a timing wrapper in
every loaded ``chebbound`` module namespace that holds it, which is where
the package looks the name up (``chebbound.cli.partial_sum``,
``chebbound.certificate.series_sum``, ``chebbound._kernels.clenshaw_kernel``,
...).  No package file changes.  Spans stay in memory as plain lists and are
written out by the caller when the traced pass ends.

``layer_metrics`` turns spans into the per-layer metrics listed in
``LAYER_METRICS``; a metric whose function no longer exists is reported as
missing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# chebbound module -> functions to wrap.  The span name is
# "<module>.<function>"; kernels are grouped under chebpoly, whose public
# functions are their only callers.
TARGETS = {
    "expseries": ("cheb_sandwich", "taylor_sandwich", "partial_sum", "exp_cheb_coefficients",
                  "taylor_eval", "sup_error_comparison"),
    "chebpoly": ("clenshaw_eval", "eval_T", "eval_U"),
    "_kernels": ("clenshaw_kernel", "cheb_t_kernel", "cheb_u_kernel", "taylor_kernel"),
    "bessel": ("bessel_i", "series_sum"),
    "certificate": ("build_G_via_reduction", "build_G_closed_form", "grid_sign_scan",
                    "sign_certificate"),
    "cli": ("main",),
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _info(name: str, args):
    """(points, degree, key) recorded with a span, or None."""
    try:
        return _info_of(name, args)
    except (IndexError, AttributeError, TypeError, ValueError):
        # a changed signature loses the annotation, never the call
        return None


def _info_of(name, args):
    if name == "chebpoly.clenshaw_eval":
        return (_size(args[1]), len(args[0].coeffs) - 1, None)
    if name == "_kernels.clenshaw_kernel":
        return (_size(args[1]), len(args[0]) - 1, None)
    if name in ("expseries.taylor_eval", "chebpoly.eval_T", "chebpoly.eval_U",
                "_kernels.cheb_t_kernel", "_kernels.cheb_u_kernel", "_kernels.taylor_kernel"):
        return (_size(args[1]), int(args[0]), None)
    if name == "expseries.exp_cheb_coefficients":
        return (0, int(args[0]), repr(args[1:]))
    return None


class Tracer:
    """Records spans [name, start_ns, end_ns, parent_index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, _info(name, args)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded chebbound namespace holding it."""
        homes = {}
        for module in TARGETS:
            try:
                homes[module] = importlib.import_module(f"chebbound.{module}")
            except ModuleNotFoundError:
                homes[module] = None
        namespaces = [m for k, m in list(sys.modules.items())
                      if m is not None and (k == "chebbound" or k.startswith("chebbound."))]
        for module, names in TARGETS.items():
            home = homes[module]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{module}.{fname}")
                    continue
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)


# --- aggregation ------------------------------------------------------------

def aggregate(span_lists) -> dict:
    """Per span name: calls, busy_ns, self_ns, points, point_degrees, keys.

    ``span_lists`` holds one span list per traced process.  Busy time
    counts only spans with no ancestor of the same name; self time is a
    span's duration minus that of its direct children.
    """
    stats: dict[str, dict] = {}
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "points": 0,
                                        "point_degrees": 0, "keys": set()})
            s["calls"] += 1
            s["self_ns"] += end - start - child_ns[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                s["busy_ns"] += end - start
            if info is not None:
                points, degree, key = info
                s["points"] += points
                s["point_degrees"] += points * degree
                if key is not None:
                    s["keys"].add((degree, key))
    return stats


def _kernel_total(stats, field):
    return sum(v[field] for k, v in stats.items() if k.startswith("_kernels."))


def _field(span, field, scale=1.0):
    def get(stats, extra):
        return stats.get(span, {}).get(field, 0) * scale
    get.span = span
    return get


def _reuse(stats, extra):
    s = stats.get("expseries.exp_cheb_coefficients")
    if not s or not s["calls"]:
        return 0.0
    return 1.0 - len(s["keys"]) / s["calls"]


def _ns_per_point_degree(stats, extra):
    s = stats.get("chebpoly.clenshaw_eval")
    if not s or not s["point_degrees"]:
        return 0.0
    return s["busy_ns"] / s["point_degrees"]


def _extra(key):
    def get(stats, extra):
        return extra.get(key, 0.0)
    return get


_reuse.span = "expseries.exp_cheb_coefficients"
_ns_per_point_degree.span = "chebpoly.clenshaw_eval"

# name -> (unit, getter).  flops and min_bytes are computed from argument
# sizes (4 flops per point and degree step of Clenshaw, 16 B per point for
# one float64 read and one written), not measured.
LAYER_METRICS = {
    "startup.interpreter_ms": ("ms", _extra("startup.interpreter_ms")),
    "startup.import_ms": ("ms", _extra("startup.import_ms")),
    "startup.numpy_ms": ("ms", _extra("startup.numpy_ms")),
    "startup.mpmath_ms": ("ms", _extra("startup.mpmath_ms")),
    "startup.chebbound_self_ms": ("ms", _extra("startup.chebbound_self_ms")),
    "cli.main.calls": ("count", _field("cli.main", "calls")),
    "cli.main.busy_ms": ("ms", _field("cli.main", "busy_ns", 1e-6)),
    "cli.main.self_ms": ("ms", _field("cli.main", "self_ns", 1e-6)),
    "cli.bytes_out": ("B", _extra("cli.bytes_out")),
    "cli.self_us_per_row": ("us", _extra("cli.self_us_per_row")),
    "expseries.cheb_sandwich.calls": ("count", _field("expseries.cheb_sandwich", "calls")),
    "expseries.cheb_sandwich.self_us": ("us", _field("expseries.cheb_sandwich", "self_ns", 1e-3)),
    "expseries.taylor_sandwich.calls": ("count", _field("expseries.taylor_sandwich", "calls")),
    "expseries.taylor_sandwich.busy_us": ("us", _field("expseries.taylor_sandwich", "busy_ns", 1e-3)),
    "expseries.partial_sum.calls": ("count", _field("expseries.partial_sum", "calls")),
    "expseries.partial_sum.busy_us": ("us", _field("expseries.partial_sum", "busy_ns", 1e-3)),
    "expseries.exp_cheb_coefficients.calls": ("count", _field("expseries.exp_cheb_coefficients", "calls")),
    "expseries.exp_cheb_coefficients.busy_us": ("us", _field("expseries.exp_cheb_coefficients", "busy_ns", 1e-3)),
    "expseries.coeff_reuse_ratio": ("ratio", _reuse),
    "expseries.taylor_eval.calls": ("count", _field("expseries.taylor_eval", "calls")),
    "expseries.taylor_eval.busy_ms": ("ms", _field("expseries.taylor_eval", "busy_ns", 1e-6)),
    "expseries.taylor_eval.points": ("count", _field("expseries.taylor_eval", "points")),
    "expseries.sup_error_comparison.calls": ("count", _field("expseries.sup_error_comparison", "calls")),
    "expseries.sup_error_comparison.busy_ms": ("ms", _field("expseries.sup_error_comparison", "busy_ns", 1e-6)),
    "chebpoly.clenshaw_eval.calls": ("count", _field("chebpoly.clenshaw_eval", "calls")),
    "chebpoly.clenshaw_eval.busy_ms": ("ms", _field("chebpoly.clenshaw_eval", "busy_ns", 1e-6)),
    "chebpoly.clenshaw_eval.self_us": ("us", _field("chebpoly.clenshaw_eval", "self_ns", 1e-3)),
    "chebpoly.clenshaw_eval.points": ("count", _field("chebpoly.clenshaw_eval", "points")),
    "chebpoly.clenshaw_eval.ns_per_point_degree": ("ns", _ns_per_point_degree),
    "chebpoly.clenshaw_eval.flops": ("flop-computed", _field("chebpoly.clenshaw_eval", "point_degrees", 4)),
    "chebpoly.clenshaw_eval.min_bytes": ("B-computed", _field("chebpoly.clenshaw_eval", "points", 16)),
    "chebpoly.eval_T.calls": ("count", _field("chebpoly.eval_T", "calls")),
    "chebpoly.eval_T.busy_ms": ("ms", _field("chebpoly.eval_T", "busy_ns", 1e-6)),
    "chebpoly.eval_U.calls": ("count", _field("chebpoly.eval_U", "calls")),
    "chebpoly.eval_U.busy_ms": ("ms", _field("chebpoly.eval_U", "busy_ns", 1e-6)),
    "chebpoly.kernels.calls": ("count", lambda st, ex: _kernel_total(st, "calls")),
    "chebpoly.kernels.busy_ms": ("ms", lambda st, ex: _kernel_total(st, "busy_ns") * 1e-6),
    "bessel.bessel_i.calls": ("count", _field("bessel.bessel_i", "calls")),
    "bessel.bessel_i.busy_us": ("us", _field("bessel.bessel_i", "busy_ns", 1e-3)),
    "bessel.series_sum.calls": ("count", _field("bessel.series_sum", "calls")),
    "bessel.series_sum.busy_ms": ("ms", _field("bessel.series_sum", "busy_ns", 1e-6)),
    "certificate.build_G_via_reduction.calls": ("count", _field("certificate.build_G_via_reduction", "calls")),
    "certificate.build_G_via_reduction.busy_ms": ("ms", _field("certificate.build_G_via_reduction", "busy_ns", 1e-6)),
    "certificate.build_G_via_reduction.self_ms": ("ms", _field("certificate.build_G_via_reduction", "self_ns", 1e-6)),
    "certificate.build_G_closed_form.calls": ("count", _field("certificate.build_G_closed_form", "calls")),
    "certificate.build_G_closed_form.busy_ms": ("ms", _field("certificate.build_G_closed_form", "busy_ns", 1e-6)),
    "certificate.grid_sign_scan.calls": ("count", _field("certificate.grid_sign_scan", "calls")),
    "certificate.grid_sign_scan.self_ms": ("ms", _field("certificate.grid_sign_scan", "self_ns", 1e-6)),
    "certificate.sign_certificate.calls": ("count", _field("certificate.sign_certificate", "calls")),
    "certificate.sign_certificate.busy_us": ("us", _field("certificate.sign_certificate", "busy_ns", 1e-3)),
    "trace.spans": ("count", _extra("trace.spans")),
    "trace.overhead_frac": ("ratio", _extra("trace.overhead_frac")),
}


def layer_metrics(span_lists, extra: dict, missing: set) -> tuple[dict, list]:
    """Per-layer metrics as {name: {"value", "unit"}}, plus missing names."""
    stats = aggregate(span_lists)
    out, absent = {}, []
    for name, (unit, get) in LAYER_METRICS.items():
        span = getattr(get, "span", None)
        if span in missing:
            absent.append(name)
            continue
        out[name] = {"value": float(get(stats, extra)), "unit": unit}
    return out, absent
