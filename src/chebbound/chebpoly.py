"""Chebyshev polynomial algebra on the whole real line.

Series in the T basis are evaluated by the backward Clenshaw recurrence,
which is exact polynomial algebra, valid for any real x, not just [-1, 1].
T_n and U_n go through the same kernel, as the series with the unit
coefficient vector e_n and as the U-to-T expansion below.  Series are
differentiated through the identity T_n' = n U_{n-1} followed by the U-to-T
expansion

    U_n = 2 (T_n + T_{n-2} + ...) - [n even],

so every result stays in the single canonical T basis.

Every evaluator takes a scalar or an array of points.  A scalar (a Python
or numpy int or float, or a 0-d array) is evaluated in Python floats and
gives a Python float; any other array gives a float64 ndarray of its shape.
An array of more than ``_kernels.BLOCK`` points is evaluated one block of
points at a time, in place on work buffers allocated once per call, so the
recurrence's arrays stay in cache and no step allocates a temporary.
Scalars and shorter arrays run the kernel's operator form.  All of these
run the same IEEE operations in the same order, so a point gives the same
bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import DomainError

__all__ = ["ChebSeries", "eval_T", "eval_U", "clenshaw_eval", "differentiate", "u_to_t"]


@dataclass(frozen=True)
class ChebSeries:
    """Polynomial sum_j coeffs[j] * T_j given by its T-basis coefficients.

    ``coeffs`` is stored as a read-only float64 copy of length degree + 1.
    The evaluators read the coefficients from ``values``, a tuple of Python
    floats made from that copy on first use.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a series needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series coefficients must be finite")
        # a write would leave ``values`` stale, and cached series are shared
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @cached_property
    def values(self) -> tuple[float, ...]:
        """The coefficients as Python floats, as the kernels read them."""
        return tuple(self.coeffs.tolist())


def _evaluate(kernel, arg, x):
    """kernel(arg, points) at the points of x.

    A scalar reaches the kernel as a Python float and any other array as a
    float64 ndarray; an array of more than ``_kernels.BLOCK`` points goes
    through ``_kernels.blocked``, which runs the kernel in place.  Callers
    pass the kernel as ``_kernels.<name>`` looked up at call time, so a
    wrapper set on that module attribute (perfbench's tracer) sees every
    call.
    """
    if isinstance(x, (int, float)):
        return kernel(arg, float(x))
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim == 0:
        return kernel(arg, float(xs))
    if xs.size <= _kernels.BLOCK:
        return kernel(arg, xs)
    return _kernels.blocked(kernel, arg, xs)


def eval_T(n: int, x):
    """T_n(x) for n >= 0; accepts a scalar or an array of points."""
    if n < 0:
        raise DomainError("T_n needs n >= 0")
    return _evaluate(_kernels.clenshaw_kernel, (0.0,) * n + (1.0,), x)


def eval_U(n: int, x):
    """U_n(x) for n >= -1 (U_{-1} is identically 0); scalar or array."""
    if n < -1:
        raise DomainError("U_n needs n >= -1")
    return _evaluate(_kernels.clenshaw_kernel, tuple(map(float, u_to_t_coeffs(n))), x)


def clenshaw_eval(s: ChebSeries, x):
    """Evaluate a T-basis series by Clenshaw's recurrence; scalar or array."""
    return _evaluate(_kernels.clenshaw_kernel, s.values, x)


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
    return ChebSeries(np.array(differentiate_coeffs(list(s.coeffs)), dtype=np.float64))


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
    if n < 0:
        raise DomainError("u_to_t needs n >= 0")
    return ChebSeries(np.array(u_to_t_coeffs(n), dtype=np.float64))
