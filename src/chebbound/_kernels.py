"""Kernels for the hot evaluation loops: Clenshaw and Horner.

Each kernel runs a Python loop over the recurrence index and uses only
arithmetic operators, so one function serves both kinds of point: ``xs`` is
either a Python float, giving a float, or a float64 ndarray, giving an
ndarray of the same shape with one whole-array operation per step.  The
operations and their order are the same for both, so a float and the same
value inside an array give the same bits.  Both kernels are pure functions
of their inputs.
"""

from __future__ import annotations


def clenshaw_kernel(coeffs, xs):
    """Backward Clenshaw recurrence for sum_j coeffs[j]*T_j at each x.

    ``coeffs`` is any sequence of floats, at least one long.
    """
    # the point leads each step so numpy can reuse its temporaries
    b1 = b2 = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        b1, b2 = 2.0 * xs * b1 + coeffs[k] - b2, b1
    return xs * b1 + coeffs[0] - b2


def taylor_kernel(n, xs):
    """Degree-n Maclaurin partial sum of exp at each x (Horner form)."""
    # x ** 0.0 is 1.0 for every x, inf and nan included, in xs' own type
    v = xs ** 0.0
    for k in range(n, 0, -1):
        v = 1.0 + v * xs / k
    return v
