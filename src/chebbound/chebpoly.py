"""Chebyshev polynomial algebra on the whole real line.

Series in the T basis are evaluated by the backward Clenshaw recurrence,
which is exact polynomial algebra, valid for any real x, not just [-1, 1].
T_n and U_n go through the same kernel, as the series with the unit
coefficient vector e_n and as the U-to-T expansion below.  Series are
differentiated through the identity T_n' = n U_{n-1} followed by the U-to-T
expansion

    U_n = 2 (T_n + T_{n-2} + ...) - [n even],

so every result stays in the single canonical T basis.

Every evaluator takes a scalar or an array of points and routes it through
``_kernels.evaluate``: a scalar gives a Python float and any other array a
float64 ndarray of its shape, with the same bits at each point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from . import _kernels
from .errors import _degree

__all__ = ["ChebSeries", "eval_T", "eval_U", "clenshaw_eval", "differentiate", "u_to_t"]


class ChebSeries(namedtuple("ChebSeries", "values")):
    """Polynomial sum_j coeffs[j] * T_j given by its T-basis coefficients.

    The coefficients are stored as ``values``, a tuple of degree + 1 Python
    floats, which the evaluators read; series compare and hash by it.
    ``coeffs`` is a read-only float64 ndarray of the same bits, built on
    first use, so a series made and evaluated at float points needs no
    numpy.  A series is a named tuple of its one field, and immutable.
    """

    def __new__(cls, coeffs):
        # an array of another rank would give rows, and a string characters
        if isinstance(coeffs, str) or getattr(coeffs, "ndim", 1) != 1:
            raise ValueError("a series needs at least one coefficient")
        try:
            values = tuple(map(float, coeffs))
        except TypeError:
            raise ValueError("a series needs at least one coefficient") from None
        if not values:
            raise ValueError("a series needs at least one coefficient")
        if not all(map(math.isfinite, values)):
            raise ValueError("series coefficients must be finite")
        return tuple.__new__(cls, (values,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        # the instance dict holds only the cached ``coeffs``
        raise AttributeError(f"cannot assign to ChebSeries.{name}")

    def __reduce__(self):
        # rebuilt from ``values``, so a copy's ``coeffs`` is read-only too
        return ChebSeries, (self.values,)

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    @cached_property
    def coeffs(self):
        """The coefficients as a read-only float64 ndarray."""
        import numpy as np

        arr = np.array(self.values)
        # series are cached and shared, and ``values`` is what they evaluate
        arr.flags.writeable = False
        return arr


def eval_T(n: int, x):
    """T_n(x) for n >= 0; accepts a scalar or an array of points."""
    n = _degree(n, 0, "T_n")
    return _kernels.evaluate(_kernels.clenshaw_kernel, (0.0,) * n + (1.0,), x)


def eval_U(n: int, x):
    """U_n(x) for n >= -1 (U_{-1} is identically 0); scalar or array."""
    n = _degree(n, -1, "U_n")
    return _kernels.evaluate(_kernels.clenshaw_kernel, tuple(map(float, u_to_t_coeffs(n))), x)


def clenshaw_eval(s: ChebSeries, x):
    """Evaluate a T-basis series by Clenshaw's recurrence; scalar or array."""
    return _kernels.evaluate(_kernels.clenshaw_kernel, s.values, x)


def differentiate_coeffs(coeffs):
    """T-basis coefficients of the derivative of a T-basis coefficient list.

    Generic over the scalar type (float, int or Fraction); integer input
    gives integers, which lets the certificate construction run the
    identical algebra exactly on integer numerators.  A degree-0 input
    yields the one-term zero series.
    """
    n = len(coeffs) - 1
    if n == 0:
        return [coeffs[0] * 0]
    d = [0] * n
    for k in range(n - 1, 0, -1):
        prev = d[k + 2] if k + 2 < n else 0
        d[k] = prev + 2 * (k + 1) * coeffs[k + 1]
    half = 0
    if n >= 3:
        # every term of d[2] is 2(k+1)c, so an integer d[2] halves exactly
        half = d[2] // 2 if isinstance(d[2], int) else d[2] / 2
    d[0] = coeffs[1] + half
    return d


def differentiate(s: ChebSeries) -> ChebSeries:
    """Derivative of a T-basis series, returned in the T basis.

    The result has degree max(degree - 1, 0); differentiating a constant
    gives the zero series of length one.
    """
    return ChebSeries(differentiate_coeffs(list(s.values)))


def u_to_t_coeffs(n: int) -> list[int]:
    """Integer T-basis coefficients of U_n; n = -1 gives the zero series."""
    if n == -1:
        return [0]
    c = [0] * (n + 1)
    for j in range(n % 2, n + 1, 2):
        c[j] = 2
    if n % 2 == 0:
        c[0] = 1
    return c


def u_to_t(n: int) -> ChebSeries:
    """U_n expanded in the T basis.

    Odd n: coefficient 2 on every odd-index T_j <= n.  Even n: coefficient 2
    on every even-index T_j <= n except T_0, which carries 1 (the trailing
    -1 merged into 2 T_0).
    """
    return ChebSeries(u_to_t_coeffs(_degree(n, 0, "u_to_t")))
