"""Chebyshev polynomial algebra on the whole real line.

Series in the T basis are evaluated by the backward Clenshaw recurrence,
which is exact polynomial algebra, valid for any real x, not just [-1, 1].
T_n and U_n go through the same kernel, as the series with the unit
coefficient vector e_n and as the U-to-T expansion below.  Series are
differentiated through the identity T_n' = n U_{n-1} followed by the U-to-T
expansion

    U_n = 2 (T_n + T_{n-2} + ...) - [n even],

so every result stays in the single canonical T basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError

__all__ = ["ChebSeries", "eval_T", "eval_U", "clenshaw_eval", "differentiate", "u_to_t"]


@dataclass(frozen=True)
class ChebSeries:
    """Polynomial sum_j coeffs[j] * T_j given by its T-basis coefficients.

    ``coeffs`` is stored as a float64 array of length degree + 1 and must be
    treated as read-only after construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a series needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _as_points(x):
    arr = np.asarray(x, dtype=np.float64)
    return np.atleast_1d(arr), arr.ndim == 0


def _clenshaw(coeffs, x):
    pts, scalar = _as_points(x)
    out = _kernels.clenshaw_kernel(coeffs, pts)
    return float(out[0]) if scalar else out


def eval_T(n: int, x):
    """T_n(x) for n >= 0; accepts a scalar or an array of points."""
    if n < 0:
        raise DomainError("T_n needs n >= 0")
    e_n = np.zeros(n + 1)
    e_n[n] = 1.0
    return _clenshaw(e_n, x)


def eval_U(n: int, x):
    """U_n(x) for n >= -1 (U_{-1} is identically 0); scalar or array."""
    if n < -1:
        raise DomainError("U_n needs n >= -1")
    return _clenshaw(np.array(u_to_t_coeffs(n), dtype=np.float64), x)


def clenshaw_eval(s: ChebSeries, x):
    """Evaluate a T-basis series by Clenshaw's recurrence; scalar or array."""
    return _clenshaw(s.coeffs, x)


def differentiate_coeffs(coeffs):
    """T-basis coefficients of the derivative of a T-basis coefficient list.

    Generic over the scalar type (float or Fraction), which lets the
    certificate construction run the identical algebra exactly in
    fractions.  A degree-0 input yields the one-term zero series.
    """
    n = len(coeffs) - 1
    if n == 0:
        return [coeffs[0] * 0]
    d = [0] * n
    for k in range(n - 1, 0, -1):
        prev = d[k + 2] if k + 2 < n else 0
        d[k] = prev + 2 * (k + 1) * coeffs[k + 1]
    d[0] = coeffs[1] + (d[2] / 2 if n >= 3 else 0)
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
