"""Float brackets: each end keeps the bits of its own truncation.

``cheb_sandwich`` calls ``_kernels.clenshaw_kernel`` once per end and
``taylor_sandwich`` runs ``_kernels.taylor_bracket`` once; each end must
have the bits of its truncation evaluated alone, NaN and signed zero
included.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

import chebbound as cb
from chebbound import _kernels

SEED = 20231


def _bits(v):
    # NaN equals NaN; -0.0 and +0.0 differ
    assert type(v) is float
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _same(got, want):
    return [_bits(v) for v in got] == [_bits(v) for v in want]


# the API: 20000 seeded draws per bracket, shaped like perfbench scalar's
DRAWS = 20000


def _assert_cheb(n, x):
    enc = cb.cheb_sandwich(n, x)
    assert _same((enc.x,), (float(x),))
    want = (cb.clenshaw_eval(cb.partial_sum(2 * n - 1), x), cb.clenshaw_eval(cb.partial_sum(2 * n), x))
    assert _same(enc[1:3], want), (n, x)
    assert enc[3:] == (2 * n - 1, 2 * n)


def test_cheb_sandwich_gives_the_bits_of_each_truncation():
    rng = np.random.default_rng(SEED)
    pairs = rng.integers(1, 76, DRAWS).tolist()
    xs = (-1.0 - 10.0 ** rng.uniform(-6.0, 4.0, DRAWS)).tolist()
    for n, x in zip(pairs, xs):
        _assert_cheb(n, x)


EDGE_X = (-math.inf, -1e200, -1e308, math.nextafter(-1.0, -math.inf))
# the same kinds of point the evaluators take
TYPED_X = (-3, -1000, -2.5, np.float64(-7.25), np.float32(-2.5),
           np.nextafter(np.float32(-1.0), np.float32(-2.0)), np.array(-41.0), np.array(-1e200),
           Fraction(-10, 3), Fraction(-1_000_001, 1_000_000))


@pytest.mark.parametrize("n", (1, 2, 8, 16, 32, 75))
def test_cheb_sandwich_edges_and_point_types(n):
    for x in EDGE_X + TYPED_X:
        _assert_cheb(n, x)


def _assert_taylor(m, x):
    enc = cb.taylor_sandwich(m, x)
    assert _same((enc.x,), (float(x),))
    assert _same(enc[1:3], (cb.taylor_eval(m, x), cb.taylor_eval(m + 1, x))), (m, x)
    assert enc[3:] == (m, m + 1)


def test_taylor_sandwich_gives_the_bits_of_each_sum():
    rng = np.random.default_rng(SEED + 1)
    degrees = (2 * rng.integers(0, 76, DRAWS) + 1).tolist()
    xs = (-(10.0 ** rng.uniform(-6.0, 4.0, DRAWS))).tolist()
    for m, x in zip(degrees, xs):
        _assert_taylor(m, x)


@pytest.mark.parametrize("m", (1, 3, 7, 63, 151))
def test_taylor_sandwich_edges_and_point_types(m):
    for x in (-5e-324,) + EDGE_X + TYPED_X:
        _assert_taylor(m, x)


def test_cheb_sandwich_looks_its_kernel_up_at_call_time(monkeypatch):
    # a wrapper set on the _kernels attribute (a tracer) sees both ends
    kernel, calls = _kernels.clenshaw_kernel, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "clenshaw_kernel", counting)
    enc = cb.cheb_sandwich(8, -5.0)
    assert calls == [(cb.partial_sum(15).values, -5.0), (cb.partial_sum(16).values, -5.0)]
    assert enc[1:3] == (kernel(*calls[0]), kernel(*calls[1]))


def test_taylor_sandwich_looks_its_kernel_up_at_call_time(monkeypatch):
    kernel, calls = _kernels.taylor_bracket, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "taylor_bracket", counting)
    enc = cb.taylor_sandwich(7, -2.5)
    assert calls == [(7, -2.5)]
    assert enc[1:3] == kernel(7, -2.5)
