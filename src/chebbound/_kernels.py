"""Array kernels for the hot evaluation loops: Clenshaw and Horner in numpy.

Each kernel runs a Python loop over the recurrence index with whole-array
operations per step.  Both take float64 arrays and are pure functions of
their inputs.
"""

from __future__ import annotations

import numpy as np


def clenshaw_kernel(coeffs, xs):
    """Backward Clenshaw recurrence for sum_j coeffs[j]*T_j at each x."""
    # the array leads each step so numpy can reuse its temporaries
    b1 = np.zeros_like(xs)
    b2 = np.zeros_like(xs)
    for k in range(coeffs.shape[0] - 1, 0, -1):
        b1, b2 = 2.0 * xs * b1 + coeffs[k] - b2, b1
    return xs * b1 + coeffs[0] - b2


def taylor_kernel(n, xs):
    """Degree-n Maclaurin partial sum of exp at each x (Horner form)."""
    v = np.ones_like(xs)
    for k in range(n, 0, -1):
        v = 1.0 + v * xs / k
    return v
