"""Chebyshev expansion of exp on [-1, 1] and the certified sandwich below -1.

The expansion coefficients are modified Bessel values at 1,

    a_0 = I_0(1),    a_n = 2 I_n(1)  (n >= 1),

each correctly rounded from one integer table of I_n(1), built at import,
up to a_150.  The truncations f_N = sum_{n<=N} a_n T_n bracket exp on (-inf, -1):
odd-degree truncations from below, even-degree ones from above.  The
``cheb_sandwich`` pairing (2N-1, 2N) realises that bracket; the classical
Maclaurin pairing (N, N+1) for odd N and x < 0 is provided as the baseline.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache

from . import _kernels
from .bessel import _AT_ONE, _AT_ONE_BITS
from .chebpoly import ChebSeries, clenshaw_eval
from .errors import DomainError, _degree

__all__ = [
    "Enclosure",
    "exp_cheb_coefficients",
    "partial_sum",
    "taylor_eval",
    "taylor_sandwich",
    "cheb_sandwich",
    "endpoint_gap",
    "sup_error_comparison",
]


class Enclosure(namedtuple("Enclosure", "x lower upper lower_degree upper_degree")):
    """A two-sided bracket of exp at a single point.

    ``lower`` and ``upper`` are the float64 values of the degree
    ``lower_degree`` (odd) and ``upper_degree`` (even) truncations.  The
    exact truncations satisfy lower <= exp(x) <= upper for every x < -1;
    the floats are not yet certified to (ROADMAP item 1).  Their rounding
    is not bounded, so at large degrees both can land on one side of
    exp(x): ``cheb_sandwich(32, -5.45393)`` gives lower = upper =
    0.004279453347895784, above exp(x) = 0.0042794533478953356...  Where
    the polynomials overflow both are NaN, as at ``cheb_sandwich(8,
    -1e200)``.  An enclosure is an immutable named tuple of these five
    fields.
    """

    __slots__ = ()

    def __new__(cls, x, lower, upper, lower_degree, upper_degree):
        if lower_degree != upper_degree - 1:
            raise ValueError("degree pairing must be (2N-1, 2N)")
        return tuple.__new__(cls, (x, lower, upper, lower_degree, upper_degree))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _coefficients() -> tuple[float, ...]:
    """a_0..a_150, the a_k that are normal floats, each correctly rounded.

    a_k lies between c v_k and c (v_k + 2) over 2^bits (v_k from the table
    ``bessel._AT_ONE``, c = 1 for a_0, else 2); at every k both round alike,
    which the locks pin.
    """
    coeffs = []
    for k, v in enumerate(_AT_ONE):
        c = 2 if k else 1
        a = c * v / (1 << _AT_ONE_BITS)
        if a != c * (v + 2) / (1 << _AT_ONE_BITS):
            raise ArithmeticError(f"a_{k} does not settle at {_AT_ONE_BITS} bits")
        if a >= sys.float_info.min:  # the a_k fall with k, so these are a prefix
            coeffs.append(a)
    return tuple(coeffs)


_COEFFICIENTS = _coefficients()  # at import: built amid large arrays, it fragmented the heap


def _coefficient_degree(n, least: int, name: str) -> int:
    """n as an int, once it is checked to be >= least and to have a normal a_n.

    The one degree limit for everything built from the coefficients or from
    the table of I_k(1) under them: a DomainError from n = 151.
    """
    n, last = _degree(n, least, name), len(_COEFFICIENTS) - 1
    if n > last:
        raise DomainError(f"a_{n} is below the smallest normal float; the last above it is a_{last}")
    return n


def exp_cheb_coefficients(n: int):
    """Coefficients a_0..a_n of the Chebyshev expansion of exp on [-1, 1].

    All entries are positive and strictly decreasing from a_1 on, with
    a_{k+1}/a_k <= 4/(5(k+1)).  Each is the correctly rounded 2 I_k(1)
    (I_0(1) for a_0), so within half an ulp of its true value.  Each call
    returns a fresh, writable float64 ndarray.

    Raises DomainError from n = 151 on: a_151 = 8.1e-311 is below the
    smallest normal float, where half an ulp is no longer a relative bound.
    """
    import numpy as np

    return np.array(partial_sum(n).values)


@lru_cache(maxsize=None, typed=True)
def partial_sum(n: int) -> ChebSeries:
    """The degree-n truncation f_n = sum_{k<=n} a_k T_k as a T-basis series.

    One series per degree, shared by every caller, whatever the integer
    type of n; DomainError from n = 151.
    """
    m = _coefficient_degree(n, 0, "the coefficient count")
    if m is not n:
        # a numpy integer takes the series cached for the equal int
        return partial_sum(m)
    return ChebSeries(_COEFFICIENTS[: n + 1])


def taylor_eval(n: int, x):
    """Degree-n Maclaurin partial sum of exp, by Horner accumulation.

    Accepts a scalar (giving a Python float) or an array of points (giving
    an ndarray), as the evaluators of :mod:`chebbound.chebpoly` do.
    """
    return _kernels.evaluate(_kernels.taylor_kernel, _degree(n, 0, "taylor_eval"), x)


def taylor_sandwich(n: int, x: float) -> Enclosure:
    """Maclaurin bracket: degree-n sum <= exp(x) <= degree-(n+1) sum.

    Valid for odd n and x < 0; anything else is rejected.  Both sums run in
    one pass (``_kernels.taylor_bracket``), each with the bits of
    ``taylor_eval`` at its degree.
    """
    n = _degree(n, 1, "the Maclaurin bracket")
    if n % 2 == 0:
        raise DomainError("the Maclaurin bracket needs an odd degree")
    if not x < 0:
        raise DomainError("the Maclaurin bracket holds for x < 0 only")
    x = float(x)
    lower, upper = _kernels.taylor_bracket(n, x)
    return Enclosure(x, lower, upper, n, n + 1)


def cheb_sandwich(n: int, x: float) -> Enclosure:
    """Chebyshev bracket f_{2n-1}(x) <= exp(x) <= f_{2n}(x) for x < -1.

    ``n`` counts bracket pairs, so the polynomial degrees are 2n-1 and 2n.
    Points with x >= -1 are rejected rather than given an uncertified
    answer: the bracket is only guaranteed on (-inf, -1).  Each truncation
    runs ``_kernels.clenshaw_kernel`` once at float(x), past the array
    dispatch of ``clenshaw_eval``, with the bits of ``clenshaw_eval(
    partial_sum(k), x)`` at its degree k.
    """
    n = _degree(n, 1, "the Chebyshev bracket")
    if not x < -1.0:
        raise DomainError("the Chebyshev bracket is certified on x < -1 only")
    lo_series = partial_sum(2 * n - 1)
    hi_series = partial_sum(2 * n)
    x = float(x)
    lower = _kernels.clenshaw_kernel(lo_series.values, x)
    upper = _kernels.clenshaw_kernel(hi_series.values, x)
    return Enclosure(x, lower, upper, 2 * n - 1, 2 * n)


def endpoint_gap(n: int) -> float:
    """f_n(-1) - exp(-1): >= 0 for even n, <= 0 for odd n (to ~1e-13).

    Because T_k(-1) = (-1)^k and the coefficients decrease, the truncation
    alternates around exp(-1) at the endpoint; the gap shrinks to 0 as the
    expansion converges.
    """
    return clenshaw_eval(partial_sum(_degree(n, 0, "endpoint_gap")), -1.0) - math.exp(-1.0)


def sup_error_comparison(n: int, grid_points: int) -> tuple[float, float]:
    """Float64 grid estimates of the sup-norm errors of f_n and the degree-n Maclaurin sum on [-1, 1].

    Each is the largest |float value - np.exp| over a uniform grid of
    ``grid_points`` points, so it measures the float evaluation as well as
    the truncation.  Once the truncation error nears float64 rounding the
    rounding wins: from n = 14 the Chebyshev figure is rounding noise
    (8.9e-16, where the exact sup is 4.9e-17), and from n = 17 it reads at
    or above the Maclaurin figure (8.9e-16 against 4.4e-16), although the
    exact Chebyshev error is the smaller at every n >= 1 (3.3e-23 against
    8.7e-18 at n = 18).  The exact sups, both reached at x = 1, are the
    subject of "An exact compare" in ROADMAP.md.
    """
    n = _degree(n, 0, "sup_error_comparison")
    grid_points = _degree(grid_points, 100, "the grid's point count")
    import numpy as np

    grid = np.linspace(-1.0, 1.0, grid_points)
    ref = np.exp(grid)
    cheb_err = float(np.max(np.abs(clenshaw_eval(partial_sum(n), grid) - ref)))
    taylor_err = float(np.max(np.abs(taylor_eval(n, grid) - ref)))
    return cheb_err, taylor_err
