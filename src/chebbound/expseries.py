"""Chebyshev expansion of exp on [-1, 1] and the certified sandwich below -1.

The expansion coefficients are modified Bessel values at 1,

    a_0 = I_0(1),    a_n = 2 I_n(1)  (n >= 1),

and the truncations f_N = sum_{n<=N} a_n T_n bracket exp on (-inf, -1):
odd-degree truncations from below, even-degree ones from above.  The
``cheb_sandwich`` pairing (2N-1, 2N) realises that bracket; the classical
Maclaurin pairing (N, N+1) for odd N and x < 0 is provided as the baseline.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels
from .bessel import bessel_i
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


@dataclass(frozen=True)
class Enclosure:
    """A two-sided bracket of exp at a single point.

    ``lower`` and ``upper`` are the float64 values of the degree
    ``lower_degree`` (odd) and ``upper_degree`` (even) truncations.  The
    exact truncations satisfy lower <= exp(x) <= upper for every x < -1;
    the floats are not yet certified to (ROADMAP item 1).  Their rounding
    is not bounded, so at large degrees both can land on one side of
    exp(x): ``cheb_sandwich(32, -5.45393)`` gives lower = upper =
    0.004279453347895784, above exp(x) = 0.0042794533478953356...  Where
    the polynomials overflow both are NaN, as at ``cheb_sandwich(8,
    -1e200)``.
    """

    x: float
    lower: float
    upper: float
    lower_degree: int
    upper_degree: int

    def __post_init__(self):
        if self.lower_degree != self.upper_degree - 1:
            raise ValueError("degree pairing must be (2N-1, 2N)")


@lru_cache(maxsize=None, typed=True)
def _coeffs_cached(n: int) -> tuple[float, ...]:
    """a_0..a_n, each computed once: a_n on top of the cached a_0..a_{n-1}."""
    n = _degree(n, 0, "the coefficient count")
    a_n = (2.0 if n else 1.0) * bessel_i(n, 1.0)
    # the coefficients fall with k, so a_n is the first to check, before
    # the recursion goes down n levels
    if a_n < sys.float_info.min:
        raise DomainError(f"a_{n} is below the smallest normal float; the last above it is a_150")
    return (_coeffs_cached(n - 1) if n else ()) + (a_n,)


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

    return np.array(_coeffs_cached(n))


@lru_cache(maxsize=None, typed=True)
def partial_sum(n: int) -> ChebSeries:
    """The degree-n truncation f_n = sum_{k<=n} a_k T_k as a T-basis series.

    One series per degree, shared by every caller.
    """
    return ChebSeries(_coeffs_cached(n))


def taylor_eval(n: int, x):
    """Degree-n Maclaurin partial sum of exp, by Horner accumulation.

    Accepts a scalar (giving a Python float) or an array of points (giving
    an ndarray), as the evaluators of :mod:`chebbound.chebpoly` do.
    """
    return _kernels.evaluate(_kernels.taylor_kernel, _degree(n, 0, "taylor_eval"), x)


def taylor_sandwich(n: int, x: float) -> Enclosure:
    """Maclaurin bracket: degree-n sum <= exp(x) <= degree-(n+1) sum.

    Valid for odd n and x < 0; anything else is rejected.
    """
    n = _degree(n, 1, "the Maclaurin bracket")
    if n % 2 == 0:
        raise DomainError("the Maclaurin bracket needs an odd degree")
    if not x < 0:
        raise DomainError("the Maclaurin bracket holds for x < 0 only")
    return Enclosure(
        x=float(x),
        lower=taylor_eval(n, x),
        upper=taylor_eval(n + 1, x),
        lower_degree=n,
        upper_degree=n + 1,
    )


def cheb_sandwich(n: int, x: float) -> Enclosure:
    """Chebyshev bracket f_{2n-1}(x) <= exp(x) <= f_{2n}(x) for x < -1.

    ``n`` counts bracket pairs, so the polynomial degrees are 2n-1 and 2n.
    Points with x >= -1 are rejected rather than given an uncertified
    answer: the bracket is only guaranteed on (-inf, -1).
    """
    n = _degree(n, 1, "the Chebyshev bracket")
    if not x < -1.0:
        raise DomainError("the Chebyshev bracket is certified on x < -1 only")
    lo_series = partial_sum(2 * n - 1)
    hi_series = partial_sum(2 * n)
    return Enclosure(
        x=float(x),
        lower=clenshaw_eval(lo_series, x),
        upper=clenshaw_eval(hi_series, x),
        lower_degree=2 * n - 1,
        upper_degree=2 * n,
    )


def endpoint_gap(n: int) -> float:
    """f_n(-1) - exp(-1): >= 0 for even n, <= 0 for odd n (to ~1e-13).

    Because T_k(-1) = (-1)^k and the coefficients decrease, the truncation
    alternates around exp(-1) at the endpoint; the gap shrinks to 0 as the
    expansion converges.
    """
    return clenshaw_eval(partial_sum(_degree(n, 0, "endpoint_gap")), -1.0) - math.exp(-1.0)


def sup_error_comparison(n: int, grid_points: int) -> tuple[float, float]:
    """Sup-norm errors of f_n and the degree-n Maclaurin sum on [-1, 1].

    Both maxima are taken over a uniform grid of ``grid_points`` points; the
    Chebyshev error never exceeds the Maclaurin error.
    """
    n = _degree(n, 0, "sup_error_comparison")
    grid_points = _degree(grid_points, 100, "the grid's point count")
    import numpy as np

    grid = np.linspace(-1.0, 1.0, grid_points)
    ref = np.exp(grid)
    cheb_err = float(np.max(np.abs(clenshaw_eval(partial_sum(n), grid) - ref)))
    taylor_err = float(np.max(np.abs(taylor_eval(n, grid) - ref)))
    return cheb_err, taylor_err
