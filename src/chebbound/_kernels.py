"""Kernels for the hot evaluation loops: Clenshaw and Horner.

Each kernel runs a Python loop over the recurrence index and uses only
arithmetic operators, so one function serves both kinds of point: ``xs`` is
either a Python float, giving a float, or a float64 ndarray, giving an
ndarray of the same shape with one whole-array operation per step.  The
operations and their order are the same for both, so a float and the same
value inside an array give the same bits.  Both kernels are pure functions
of their inputs.

A long array goes through ``blocked``, which runs the whole recurrence on
``BLOCK`` points at a time.  Over the whole array at once, each step
streams the points and the recurrence's arrays through memory; a 2M-point
array is 16 MB, far above the per-core L2 cache.  Over a block, the live
arrays (the points, ``2x``, ``b1``, ``b2`` and one temporary: 1.25 MiB at
32768 points) stay in L2 for all steps.  ``BLOCK`` comes from a scan of
4096..131072 points at degree 64 on 2M points (best of 5): Clenshaw was
fastest at 32768 and Horner within 10% of its best there; CHANGES.md
gives the figures.  Blocks cannot change a bit: ``+ - * /`` round each
element on its own, whatever the slice or the SIMD path, and a block
applies the same operations in the same order to each point.
"""

from __future__ import annotations

import numpy as np

# points per block, from the scan above; 256 KiB of float64 is also the
# size from which numpy reuses a temporary array in place
BLOCK = 32768


def clenshaw_kernel(coeffs, xs):
    """Backward Clenshaw recurrence for sum_j coeffs[j]*T_j at each x.

    ``coeffs`` is any sequence of floats, at least one long.
    """
    # 2.0 * xs * b1 is (2.0 * xs) * b1, so hoisting 2x keeps every bit; it
    # leads each step so numpy can reuse its temporaries
    x2 = 2.0 * xs
    b1 = b2 = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        b1, b2 = x2 * b1 + coeffs[k] - b2, b1
    return xs * b1 + coeffs[0] - b2


def taylor_kernel(n, xs):
    """Degree-n Maclaurin partial sum of exp at each x (Horner form)."""
    # x ** 0.0 is 1.0 for every x, inf and nan included, in xs' own type
    v = xs ** 0.0
    for k in range(n, 0, -1):
        v = 1.0 + v * xs / k
    return v


def blocked(kernel, arg, xs):
    """kernel(arg, xs) for a float64 ndarray xs, evaluated BLOCK points at a time.

    The result is a C-ordered float64 array of xs' shape.  ``kernel`` is
    called once per block, so the caller passes it as it finds it in this
    module at call time.
    """
    flat = xs.reshape(-1)
    out = np.empty(flat.size)
    for i in range(0, flat.size, BLOCK):
        out[i:i + BLOCK] = kernel(arg, flat[i:i + BLOCK])
    return out.reshape(xs.shape)
