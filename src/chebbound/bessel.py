"""Modified Bessel functions of the first kind for integer orders.

Values come from the defining power series

    I_n(x) = sum_{m>=0} (x/2)^(2m+n) / (m! (m+n)!),

summed with a multiplicatively updated term so no explicit factorial is ever
formed.  Alongside the point values the module provides the two-sided
enclosure

    (x/2)^n / n!  <  I_n(x)  <  cosh(x) (x/2)^n / n!      (x > 0)

and the ratio estimate I_{n+1}(x)/I_n(x) <= cosh(x) x / (2(n+1)), which
specialises at x = 1 to the exact rational 4/(5(n+1)).

The direct series is accurate and fast for the operating range of this
package (x <= 2, n <= 64); no downward recurrence is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonConvergenceError

__all__ = [
    "Interval",
    "EvalPrecision",
    "bessel_i",
    "bessel_i_enclosure",
    "bessel_ratio_bound",
    "recurrence_residual",
]


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, strict: bool = False) -> bool:
        if strict:
            return self.lo < value < self.hi
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class EvalPrecision:
    """Truncation control for series evaluation.

    ``rel_tol`` stops the sum once the next term drops below ``rel_tol``
    times the running sum; ``max_terms`` caps the number of terms.
    """

    rel_tol: float = 1e-15
    max_terms: int = 200

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_PRECISION = EvalPrecision()


def _leading_term(n, half_x):
    """(x/2)^n / n! accumulated multiplicatively (works for float and mpf)."""
    term = half_x * 0 + 1
    for k in range(1, n + 1):
        term = term * half_x / k
    return term


def series_sum(n, x, rel_tol, max_terms):
    """Sum the defining series of I_n(x) in the arithmetic of ``x``.

    This is the double-precision path behind :func:`bessel_i`; the
    certificate polynomials in :mod:`chebbound.certificate` take their Bessel
    values from fixed-point integer sums instead.
    """
    half_x = x / 2
    q = half_x * half_x
    term = _leading_term(n, half_x)
    total = term
    for m in range(max_terms):
        term = term * q / ((m + 1) * (m + n + 1))
        if term < rel_tol * total:
            return total + term
        total = total + term
    raise NonConvergenceError(
        f"I_{n} series did not meet rel_tol={rel_tol} within {max_terms} terms"
    )


def _check_order_and_x(n: int, x: float) -> None:
    if n < 0:
        raise DomainError("order must be a non-negative integer")
    if not x > 0:
        raise DomainError("argument must be positive")


def bessel_i(n: int, x: float, prec: EvalPrecision = DEFAULT_PRECISION) -> float:
    """Modified Bessel function I_n(x) for integer n >= 0 and x > 0.

    Parameters
    ----------
    n : int
        Order, n >= 0.
    x : float
        Argument, x > 0.
    prec : EvalPrecision
        Series truncation control.

    Returns
    -------
    float
        I_n(x) > 0.

    Raises
    ------
    DomainError
        If n < 0 or x <= 0.
    NonConvergenceError
        If the term cap is hit before the tolerance is met.
    """
    _check_order_and_x(n, x)
    return series_sum(n, float(x), prec.rel_tol, prec.max_terms)


def bessel_i_enclosure(n: int, x: float) -> Interval:
    """Two-sided enclosure of I_n(x).

    Returns the interval [(x/2)^n/n!, cosh(x) (x/2)^n/n!], which contains
    I_n(x) strictly in its interior for every x > 0.
    """
    _check_order_and_x(n, x)
    lo = _leading_term(n, float(x) / 2.0)
    return Interval(lo, math.cosh(x) * lo)


def bessel_ratio_bound(n: int, x: float, specialize: bool = False):
    """Upper bound on the ratio I_{n+1}(x)/I_n(x).

    The generic bound is cosh(x) x / (2(n+1)).  With ``specialize=True`` the
    argument must be exactly 1 and the sharper closed form is returned as the
    exact rational Fraction(4, 5(n+1)); comparisons of floats against a
    Fraction are exact, which keeps downstream checks rigorous.
    """
    _check_order_and_x(n, x)
    if specialize:
        if x != 1.0:
            raise DomainError("the specialized ratio bound is defined at x = 1 only")
        return Fraction(4, 5 * (n + 1))
    return math.cosh(x) * x / (2.0 * (n + 1))


def recurrence_residual(
    n: int, x: float, prec: EvalPrecision = DEFAULT_PRECISION
) -> float:
    """Absolute residual of the three-term relation n I_n = (x/2)(I_{n-1} - I_{n+1}).

    A diagnostic of numerical consistency between neighbouring orders; the
    relation is exact in exact arithmetic for every n >= 1, x > 0.
    """
    if n < 1:
        raise DomainError("the recurrence needs n >= 1")
    _check_order_and_x(n, x)
    below = bessel_i(n - 1, x, prec)
    here = bessel_i(n, x, prec)
    above = bessel_i(n + 1, x, prec)
    return abs(n * here - (x / 2.0) * (below - above))
