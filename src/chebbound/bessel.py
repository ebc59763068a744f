"""Modified Bessel functions of the first kind for integer orders.

Values come from the defining power series

    I_n(x) = sum_{m>=0} (x/2)^(2m+n) / (m! (m+n)!),

summed with a multiplicatively updated term so no explicit factorial is ever
formed.  Alongside the point values the module provides the two-sided
enclosure

    (x/2)^n / n!  <  I_n(x)  <  cosh(x) (x/2)^n / n!      (x > 0),

rounded outward to floats, and the ratio estimate
I_{n+1}(x)/I_n(x) <= cosh(x) x / (2(n+1)), which specialises at x = 1 to
the exact rational 4/(5(n+1)).

The float sum stops once the next term falls below 1e-15 of the running sum,
after at most 200 terms; no downward recurrence is implemented.  The rule
gives out where the leading term underflows (large n) or 200 terms are too
few (large x): NonConvergenceError is raised from order 151 at x = 1
(bracket pairs of 76 and above), from order 171 at x = 2, and for I_0 from
about x = 262.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonConvergenceError

__all__ = [
    "Interval",
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


_REL_TOL = 1e-15
_MAX_TERMS = 200


def _leading_term(n, half_x):
    """(x/2)^n / n! accumulated multiplicatively."""
    term = 1.0
    for k in range(1, n + 1):
        term = term * half_x / k
    return term


def series_sum(n, x):
    """Sum the defining series of I_n(x) in float64.

    This is the double-precision path behind :func:`bessel_i`; the
    certificate polynomials in :mod:`chebbound.certificate` take their Bessel
    values from fixed-point integer sums instead.
    """
    half_x = x / 2
    q = half_x * half_x
    term = _leading_term(n, half_x)
    total = term
    for m in range(_MAX_TERMS):
        term = term * q / ((m + 1) * (m + n + 1))
        if term < _REL_TOL * total:
            return total + term
        total = total + term
    raise NonConvergenceError(
        f"I_{n} series did not meet rel_tol={_REL_TOL} within {_MAX_TERMS} terms"
    )


def _check_order_and_x(n: int, x: float) -> None:
    if n < 0:
        raise DomainError("order must be a non-negative integer")
    if not x > 0:
        raise DomainError("argument must be positive")


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function I_n(x) for integer n >= 0 and x > 0.

    Parameters
    ----------
    n : int
        Order, n >= 0.
    x : float
        Argument, x > 0.

    Returns
    -------
    float
        I_n(x) > 0.

    Raises
    ------
    DomainError
        If n < 0 or x <= 0.
    NonConvergenceError
        If 200 terms do not bring the next term below 1e-15 of the sum:
        from order 151 at x = 1, from order 171 at x = 2, and for I_0 from
        about x = 262.
    """
    _check_order_and_x(n, x)
    return series_sum(n, float(x))


# the float range, and math.cosh taken as within 2 ulps of cosh(x), with a
# margin of 4 ulps (2^-50 relative) on the upper end
_FLOAT_MAX = Fraction(sys.float_info.max)
_COSH_MARGIN = 1 + Fraction(1, 2**50)


def _leading_term_bounds(n: int, x: float) -> tuple[Fraction, Fraction]:
    """Exact rational bounds on (x/2)^n / n!.

    The product runs on a mantissa that frexp keeps in [0.5, 1), with the
    binary exponent in a Python int, so no step overflows or underflows.
    Each of its 2n roundings has relative error at most u = 2^-53, so the
    result is within gamma_2n = 2nu / (1 - 2nu) <= 4nu of (x/2)^n / n!
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Lemma 3.1).
    """
    xm, xe = math.frexp(x)
    m, e = 1.0, n * (xe - 1)
    for k in range(1, n + 1):
        m, de = math.frexp(m * xm / k)
        e += de
    value = Fraction(m) * Fraction(2) ** e
    rel = Fraction(4 * n, 2**53)
    return value * (1 - rel), value * (1 + rel)


def _float_toward(q: Fraction, up: bool) -> float:
    """The float nearest to q on its upper (or lower) side; q is in the float range."""
    f = float(q)
    if f < q if up else f > q:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def bessel_i_enclosure(n: int, x: float) -> Interval:
    """Two-sided enclosure of I_n(x).

    Returns the interval [(x/2)^n/n!, cosh(x) (x/2)^n/n!], which contains
    I_n(x) strictly in its interior for every x > 0, rounded outward to
    floats: the lower end can round down to 0.0 where (x/2)^n/n! underflows,
    and the upper end is at least the smallest subnormal, 5e-324.

    Raises
    ------
    DomainError
        If n < 0 or x <= 0, or if the upper end exceeds the largest float
        (about 1.8e308): for I_0 from just above x = 710.4758600739439, where
        cosh(x) overflows, and first of all orders for I_238, from about
        x = 476.0875.
    """
    _check_order_and_x(n, x)
    overflow = DomainError(f"the enclosure of I_{n}({x!r}) exceeds the float range")
    try:
        # math.cosh raises past x = 710.47..., and Fraction(inf) at x = inf
        cosh = Fraction(math.cosh(x)) * _COSH_MARGIN
    except OverflowError:
        raise overflow from None
    lo, hi = _leading_term_bounds(n, float(x))
    hi *= cosh
    if hi > _FLOAT_MAX:
        raise overflow
    return Interval(_float_toward(lo, up=False), _float_toward(hi, up=True))


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


def recurrence_residual(n: int, x: float) -> float:
    """Absolute residual of the three-term relation n I_n = (x/2)(I_{n-1} - I_{n+1}).

    A diagnostic of numerical consistency between neighbouring orders; the
    relation is exact in exact arithmetic for every n >= 1, x > 0.
    """
    if n < 1:
        raise DomainError("the recurrence needs n >= 1")
    _check_order_and_x(n, x)
    below = bessel_i(n - 1, x)
    here = bessel_i(n, x)
    above = bessel_i(n + 1, x)
    return abs(n * here - (x / 2.0) * (below - above))
