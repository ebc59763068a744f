"""Modified Bessel functions of the first kind for integer orders.

Values come from the defining power series

    I_n(x) = sum_{m>=0} (x/2)^(2m+n) / (m! (m+n)!),

summed in one place, :func:`series_sum`, in integers scaled by 2^bits.  A
float x is a dyadic rational, so each term follows from the last by an exact
ratio, the only roundings are the floors of the scaled terms, and the sum
comes with exact integer bounds.  :func:`bessel_i` rounds those bounds to a
float in Ziv's manner (A. Ziv, ACM TOMS 17(3), 1991), raising the bits until
both ends round alike.  That ends because I_n(x) is transcendental at every
nonzero rational x (C. L. Siegel, 1929), so it is never a float or the
midpoint of two.  At x = 1, :func:`_bessel_floors` gives every order up to n
at once; its one call, at import, makes the table ``_AT_ONE`` of I_0(1) ..
I_151(1) that the coefficients and the certificate read.

``bessel_i`` is defined wherever its result is a float: results below half
the smallest subnormal are 0.0, subnormal results are correctly rounded too,
and a result past the largest float is a DomainError, for I_0 from
x = 713.9869085439683.  Whether a result underflows or overflows is decided
from cheap bounds before any sum that could not finish.

Alongside the point values the module provides the two-sided enclosure

    (x/2)^n / n!  <  I_n(x)  <  cosh(x) (x/2)^n / n!      (x > 0),

rounded outward to floats, and the ratio estimate
I_{n+1}(x)/I_n(x) <= cosh(x) x / (2(n+1)), rounded up to a float, which
specialises at x = 1 to the exact rational 4/(5(n+1)).  Every one of these
floats is an exact ratio of integers rounded once, by :func:`_ratio_to_float`.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
# only the specialized ratio bound needs Fraction, but neither numpy nor
# mpmath imports fractions, so a lazy import would put its few milliseconds
# into the first certificate a process builds
from fractions import Fraction

from .errors import DomainError, _degree

__all__ = [
    "Interval",
    "bessel_i",
    "bessel_i_enclosure",
    "bessel_ratio_bound",
    "recurrence_residual",
]


class Interval(namedtuple("Interval", "lo hi")):
    """Closed real interval [lo, hi] with finite endpoints, as an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, strict: bool = False) -> bool:
        if strict:
            return self.lo < value < self.hi
        return self.lo <= value <= self.hi


# the last x at which math.cosh does not overflow, and math.exp(x/2)
_COSH_X_MAX = 710.4758600739439
_HALF_EXP_X_MAX = 1419.565425786768
# bits below the leading term that bessel_i starts from, and adds per round
_ZIV_BITS = 80


def series_sum(n: int, x: float, bits: int) -> tuple[int, int]:
    """Integer bounds lo <= 2^bits I_n(x) <= hi, for an integer n >= 0 and a float x > 0.

    A float is a dyadic rational, x/2 = p / 2^s with integers p and s, so
    term m of the series scaled by 2^bits, T_m, follows T_m = r_m T_{m-1}
    with the exact ratio r_m = p^2 / (2^2s m (m+n)).  The sum keeps
    t_0 = floor(T_0) and t_m = floor(t_{m-1} r_m), one floor of an exact
    quotient per step, and stops at the first t_M = 0; lo = t_0 + ... +
    t_{M-1}.  At x = 1 the steps are ``t //= 4m(m+n)`` from
    ``(1 << bits) // (2^n n!)``.  ``bits`` may be any integer that makes
    t_0 more than twice the number of terms M; a smaller one raises
    ValueError.

    Error model: e_m = T_m - t_m obeys 0 <= e_m < 1 + r_m e_{m-1}, so
    e_m < sum_{i<=m} T_m/T_i.  The ratios r_m fall with m, so the terms rise
    and then fall, and each T_m/T_i is at most max(1, T_m/T_0).  With
    S = 2^bits I_n(x) the summed terms lose less than M(M+1)/2 + M S/T_0.
    t_M = 0 means r_M < 1, and with t_0 > M it bounds T_M below M + 1, so the
    terms never summed come to less than (M+1) / (1 - r_{M+1}).  With A the
    sum of those two (M, r)-parts, S - lo < A + M S/T_0, and T_0 >= t_0 > 2M
    turns that into S - lo < 2A + 2M lo/t_0: hi = lo + 2A + 2M (floor(lo /
    2^(b-1)) + 1), b the bit length of t_0.
    """
    p, q = x.as_integer_ratio()
    s = q.bit_length()
    # 2^s n! and 2^2s as plain integers: at x = 1 the steps below are then
    # the same few small-integer products as a dedicated x = 1 sum
    den, d2 = math.factorial(n) << s * n, 1 << 2 * s
    term = (p**n << bits) // den if bits >= 0 else p**n // (den << -bits)
    # x = 1 (and any x = 2^-k, where p = 1) skips the multiply
    first, mult, total, m, scaled = term, p * p, 0, 0, p != 1
    while term:
        total += term
        m += 1
        if scaled:
            term *= mult
        term //= d2 * m * (m + n)
    if first <= 2 * m:
        raise ValueError(f"{bits} bits leave the first term of I_{n}({x!r}) at {first}, for {m} terms")
    d = d2 * (m + 1) * (m + 1 + n)
    a = m * (m + 1) // 2 - (m + 1) * d // (mult - d)  # -(y // -z) is ceil(y / z)
    return total, total + 2 * a + 2 * m * ((total >> first.bit_length() - 1) + 1)


def _ratio_to_float(num: int, den: int, side: int = 0) -> float:
    """num/den, for integers num >= 0 and den > 0, rounded to a float.

    ``side`` 0 rounds to nearest, 1 to the nearest float at or above num/den
    and -1 to the nearest at or below.  A ratio past the float range gives
    inf, or the largest float when rounding down.
    """
    try:
        # correctly rounded; from 2^1024 - 2^970, halfway between the largest
        # float and 2^1024, it raises instead of giving inf
        f = num / den
    except OverflowError:
        return sys.float_info.max if side < 0 else math.inf
    if side:
        p, q = f.as_integer_ratio()
        if (p * den - num * q) * side < 0:
            f = math.nextafter(f, side * math.inf)
    return f


def _bessel_floors(n: int, bits: int) -> list[int]:
    """v_k with 2^bits I_k(1) - 2 < v_k <= 2^bits I_k(1), for k = 0..n.

    Two series sums at bits + guard, of orders n + 1 and n, seed the exact
    recurrence I_{k-1}(1) = 2k I_k(1) + I_{k+1}(1), run downward (Miller; W.
    Gautschi, SIAM Rev. 9, 1967) on their lower and their upper integers.  Its
    coefficients are positive, so lower bounds stay below and upper bounds
    above, and the spread hi_k - lo_k follows the same recurrence: it never
    falls as k falls and grows by a factor of at most I_0(1)/I_{n+1}(1) < 1.3
    2^(n+1) (n+1)!.  So hi_0 - lo_0 < 2^guard puts every lo_k within 2^guard
    below 2^(bits+guard) I_k(1), and lo_k >> guard within 2 units below 2^bits I_k(1).
    """
    # the growth bound, plus room for the seeds' own spread, which grows like
    # the square of their number of terms
    guard = (math.factorial(n + 1) << n + 2).bit_length() + 2 * bits.bit_length()
    lo1, hi1 = series_sum(n + 1, 1.0, bits + guard)
    lo, hi = series_sum(n, 1.0, bits + guard)
    los = [lo]
    for k in range(n, 0, -1):
        lo, lo1 = 2 * k * lo + lo1, lo
        hi, hi1 = 2 * k * hi + hi1, hi
        los.append(lo)
    if hi - lo >= 1 << guard:
        raise ArithmeticError(f"the recurrence down from I_{n}(1) spread past its {guard} guard bits")
    return [v >> guard for v in reversed(los)]


def _bits_at_one(n: int) -> int:
    """Fixed-point bits at x = 1 for orders up to n.

    I_n(1) > 1/(2^n n!) > 2^-b, b the bit length of 2^n n!, so 2^-bits lies
    more than 2^117 times below I_n(1), and below every lower order.
    """
    return (math.factorial(n) << n).bit_length() + 117


# 2^_AT_ONE_BITS I_k(1) for k = 0..151, each within 2 units below: up to the
# first order whose coefficient a_151 is below the smallest normal float.
# Built at import: built amid large arrays, its lists fragmented the heap
_AT_ONE_BITS = _bits_at_one(151)
_AT_ONE = tuple(_bessel_floors(151, _AT_ONE_BITS))


def _check_order_and_x(n, x) -> tuple[int, float]:
    """The order as an int and the argument as a float, once both are checked."""
    n = _degree(n, 0, "the order")
    if not x > 0:
        raise DomainError("argument must be positive")
    return n, float(x)


def _leading_term_frexp(n: int, x: float) -> tuple[float, int]:
    """(m, e) with (x/2)^n / n! = m 2^e (1 + d), m in [0.5, 1] and |d| <= 4nu.

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
    return m, e


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function I_n(x) for integer n >= 0 and x > 0, correctly rounded.

    The bounds of :func:`series_sum` start some 80 bits below the leading
    term (x/2)^n / n! and gain 80 bits per round until both round to the same
    float.  Results below half the smallest subnormal (2^-1075) are 0.0;
    subnormal results are rounded correctly too.

    Raises
    ------
    DomainError
        If n is not a non-negative integer or x <= 0, or if I_n(x) exceeds
        the largest float (about 1.8e308): for I_0 from x = 713.9869085439683,
        and at x = inf.
    """
    n, x = _check_order_and_x(n, x)
    overflow = DomainError(f"I_{n}({x!r}) exceeds the float range")
    # 2^(e-2) < (x/2)^n / n! < 2^(e+1), and cosh(x) < 2^(c+1) for the
    # exponent c of math.cosh(x): below 2^-1075 when e + c + 2 <= -1075
    e = _leading_term_frexp(n, x)[1]
    if x <= _COSH_X_MAX and e + math.frexp(math.cosh(x))[1] + 2 <= -1075:
        return 0.0
    # while 8j(j+n) <= x^2 the term ratios (x/2)^2 / (m(m+n)) up to m = j are
    # 2 or more, so I_n(x) > 2^j (x/2)^n/n! > 2^(j+e-2), past the float range
    # for j = 1026 - e; the factor 2 in the first step covers x * x rounding
    # up, and x = inf lands here with x * x = inf
    if e >= 1026 or 8 * (1026 - e) * (1026 - e + n) <= x * x:
        raise overflow
    for bits in itertools.count(max(0, _ZIV_BITS + 2 - e), _ZIV_BITS):
        lo, hi = series_sum(n, x, bits)
        value = _ratio_to_float(lo, 1 << bits)
        if value == math.inf:
            raise overflow
        if value == _ratio_to_float(hi, 1 << bits):
            return value


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
    n, x = _check_order_and_x(n, x)
    overflow = DomainError(f"the enclosure of I_{n}({x!r}) exceeds the float range")
    if not x <= _COSH_X_MAX:
        raise overflow
    # (x/2)^n/n! = m 2^e (1 + d) with |d| <= 4n 2^-53, so the ends over
    # 2^(106-e) are int(m 2^53) (2^53 -/+ 4n); the upper end takes math.cosh(x),
    # within 2 ulps of cosh(x), times a margin of 4 ulps, (2^50 + 1)/2^50
    m, e = _leading_term_frexp(n, x)
    c, d = math.cosh(x).as_integer_ratio()
    mant, scale = int(m * 2**53), 106 - e
    lo = mant * ((1 << 53) - 4 * n)
    hi = mant * ((1 << 53) + 4 * n) * c * ((1 << 50) + 1)
    if scale < 0:
        lo, hi, scale = lo << -scale, hi << -scale, 0
    upper = _ratio_to_float(hi, d << 50 + scale, 1)
    if upper == math.inf:
        raise overflow
    return Interval(_ratio_to_float(lo, 1 << scale, -1), upper)


def bessel_ratio_bound(n: int, x: float, specialize: bool = False):
    """Upper bound on the ratio I_{n+1}(x)/I_n(x).

    The generic bound is c x / (2(n+1)), taken exactly and rounded up to a
    float, with c the float math.cosh(x) up to x = 710.4758600739439, where
    math.cosh overflows, and fl(e^(x/2))^2 / 2 past it.  It holds whatever
    the rounding of c, which is at least 1: term by term I_{n+1}(x) <
    x/(2(n+1)) I_n(x).  With ``specialize=True`` the argument must be
    exactly 1 and the sharper closed form is returned as the exact rational
    Fraction(4, 5(n+1)); comparisons of floats against a Fraction are exact,
    which keeps downstream checks rigorous.

    Raises
    ------
    DomainError
        If n is not a non-negative integer or x <= 0, if the bound exceeds
        the largest float, or if x is past 1419.565425786768, where
        math.exp(x/2) overflows.
    """
    n, x = _check_order_and_x(n, x)
    if specialize:
        if x != 1.0:
            raise DomainError("the specialized ratio bound is defined at x = 1 only")
        return Fraction(4, 5 * (n + 1))
    if x <= _COSH_X_MAX:
        c, d = math.cosh(x).as_integer_ratio()
    elif x <= _HALF_EXP_X_MAX:
        h, g = math.exp(x / 2).as_integer_ratio()
        c, d = h * h, 2 * g * g
    if x <= _HALF_EXP_X_MAX:
        p, q = x.as_integer_ratio()
        bound = _ratio_to_float(c * p, 2 * (n + 1) * d * q, 1)
        if bound < math.inf:
            return bound
    raise DomainError(f"the ratio bound at ({n}, {x!r}) exceeds the float range")


def recurrence_residual(n: int, x: float) -> float:
    """Absolute residual of the three-term relation n I_n = (x/2)(I_{n-1} - I_{n+1}).

    A diagnostic of numerical consistency between neighbouring orders; the
    relation is exact in exact arithmetic for every n >= 1, x > 0.
    """
    n, x = _check_order_and_x(n, x)
    if n < 1:
        raise DomainError("the recurrence needs n >= 1")
    below = bessel_i(n - 1, x)
    here = bessel_i(n, x)
    above = bessel_i(n + 1, x)
    return abs(n * here - (x / 2.0) * (below - above))
