import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from chebbound import (
    DomainError,
    Interval,
    bessel_i,
    bessel_i_enclosure,
    bessel_ratio_bound,
    recurrence_residual,
)
from chebbound import bessel
from chebbound.bessel import series_sum

# frozen from the factorial-series oracle at 80 digits
I0_AT_1 = 1.2660658777520084
I1_AT_1 = 0.5651591039924851
I2_AT_1 = 0.1357476697670383
COSH_1 = 1.5430806348152437

GRID_X = (0.1, 0.5, 1.0, 2.0)


def _nearest(value) -> float:
    """The float nearest to an mpmath value, subnormals included.

    Python's float() of a 60-digit decimal rounds once, correctly; float()
    of an mpf rounds twice below the normal range.
    """
    return float(mp.nstr(value, 60))


class TestBesselI:
    def test_near_zero_limit(self):
        assert bessel_i(0, 1e-12) == pytest.approx(1.0, rel=1e-15)

    def test_value_at_one_order_zero(self):
        assert bessel_i(0, 1.0) == pytest.approx(I0_AT_1, rel=1e-14)

    def test_value_at_one_order_two(self):
        assert bessel_i(2, 1.0) == pytest.approx(I2_AT_1, rel=1e-14)

    @pytest.mark.parametrize("n", range(0, 31))
    @pytest.mark.parametrize("x", GRID_X)
    def test_matches_oracle(self, n, x):
        assert bessel_i(n, x) == pytest.approx(float(oracles.mp_bessel_i(n, x)), rel=1e-13)

    def test_values_are_locked_bit_for_bit(self):
        # every bit, where the oracle check above allows 1e-13: each value is
        # the float nearest to the 80-digit oracle
        got = [bessel_i(n, x) for n in range(0, 31) for x in GRID_X]
        assert got == [_nearest(oracles.mp_bessel_i(n, x)) for n in range(0, 31) for x in GRID_X]

    @pytest.mark.parametrize("n", range(0, 158))
    def test_correctly_rounded_at_one(self, n):
        # orders 151..156 are subnormal and 157 rounds to 0.0
        assert bessel_i(n, 1.0) == _nearest(oracles.mp_bessel_i(n, 1))

    @pytest.mark.parametrize("n", range(0, 31))
    def test_monotone_in_order_at_one(self, n):
        assert bessel_i(n, 1.0) > bessel_i(n + 1, 1.0)

    def test_positive_result(self):
        assert bessel_i(30, 0.1) > 0.0

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            bessel_i(0, 0.0)
        with pytest.raises(DomainError):
            bessel_i(0, -1.0)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            bessel_i(-1, 1.0)

    # the last values inside the limits of the float series that bessel_i
    # summed before it summed in integers
    @pytest.mark.parametrize("n, x", ((150, 1.0), (170, 2.0), (0, 262.0)))
    def test_last_values_inside_the_limits(self, n, x):
        assert 0.0 < bessel_i(n, x) < math.inf

    # values at and past those limits, and up to the overflow limit; the test
    # oracle caps its terms, so mpmath's own besseli serves here
    @pytest.mark.parametrize("n, x", ((151, 1.0), (171, 2.0), (0, 262.0), (0, 263.0), (0, 700.0),
                                      (0, math.nextafter(713.9869085439683, 0.0))))
    def test_correctly_rounded_past_the_old_series_limits(self, n, x):
        with mp.workdps(oracles.DPS):
            assert bessel_i(n, x) == _nearest(mp.besseli(n, x))

    def test_rounds_again_with_more_bits_until_both_ends_agree(self, monkeypatch):
        # 80 bits settle nearly every value in one round; 4 bits a round make
        # the loop raise the bits several times
        from chebbound import bessel

        monkeypatch.setattr(bessel, "_ZIV_BITS", 4)
        for n, x in ((0, 1.0), (7, 1.0), (3, 0.5), (2, 37.5)):
            with mp.workdps(oracles.DPS):
                assert bessel_i(n, x) == _nearest(mp.besseli(n, x))

    @pytest.mark.parametrize("n, x", ((10**6, 1.0), (3, 5e-324), (1000, 2.0), (2000, 700.0)))
    def test_below_half_the_smallest_subnormal_is_zero(self, n, x):
        assert bessel_i(n, x) == 0.0

    @pytest.mark.parametrize("n, x", ((0, math.inf), (0, 1e300), (0, 1000.0), (0, 713.9869085439683),
                                      (7, math.inf), (0, 2800.0)))
    def test_past_the_float_range_is_a_domain_error(self, n, x):
        with pytest.raises(DomainError, match="float range"):
            bessel_i(n, x)


class TestSeriesSum:
    # bits from the x = 1 certificate sizes down to negative scales at large x
    @pytest.mark.parametrize("n, x, bits", (
        (0, 1.0, 60), (5, 1.0, 1200), (64, 1.0, 700), (0, 0.1, 80), (3, 2.0, 90), (10, 5e-3, 500),
        (0, 3.0, 53), (2, 37.5, 40), (0, 300.0, 80), (40, 450.0, -100), (1, 1e-300, 1100),
    ))
    def test_bounds_hold_the_scaled_value(self, n, x, bits):
        lo, hi = series_sum(n, x, bits)
        with mp.workdps(1000):
            scaled = mp.besseli(n, x) * mp.mpf(2) ** bits
            assert lo <= scaled <= hi
            assert hi - lo <= 1e-12 * scaled

    def test_x_one_matches_the_nested_floor_sum(self):
        # term m of I_k(1), floored at 2^-bits, divided by 4m(m+k) from term m-1
        k, bits = 7, 300
        term, total, m = (1 << bits) // ((1 << k) * math.factorial(k)), 0, 0
        while term:
            total += term
            m += 1
            term //= 4 * m * (m + k)
        assert series_sum(k, 1.0, bits)[0] == total

    @pytest.mark.parametrize("bits", (0, -3))
    def test_refuses_too_few_bits(self, bits):
        with pytest.raises(ValueError):
            series_sum(0, 1.0, bits)


class TestBesselFloors:
    """The integers under the coefficients and build_G_via_reduction: two
    series sums and a backward recurrence."""

    # n = 151 at its bits is the import-time table's own call
    @pytest.mark.parametrize("n", (0, 1, 2, 16, 64, 128, 149, 151))
    def test_each_lies_within_two_units_below_the_scaled_value(self, n):
        bits = bessel._bits_at_one(n)
        floors = bessel._bessel_floors(n, bits)
        assert len(floors) == n + 1
        # 80 digits cannot resolve a unit of 2^bits I_0(1) once bits passes
        # about 260: take the oracle to 20 digits below the unit
        dps = int(bits * 0.30103) + 22
        with mp.workdps(dps):
            for k, v in enumerate(floors):
                exact = mp.ldexp(oracles.mp_bessel_i(k, 1, dps), bits)
                assert exact - 2 < v <= exact, (n, k)
                assert v <= series_sum(k, 1.0, bits)[1]

    def test_a_spread_past_the_guard_bits_is_refused(self, monkeypatch):
        # seeds whose bounds lie too far apart must not pass for floors
        real = bessel.series_sum

        def wide(k, x, bits):
            lo, _ = real(k, x, bits)
            return lo, lo + (1 << bits // 2)

        monkeypatch.setattr(bessel, "series_sum", wide)
        with pytest.raises(ArithmeticError, match="guard"):
            bessel._bessel_floors(8, bessel._bits_at_one(8))

    def test_the_table_at_one_is_the_one_call_at_its_bits(self):
        assert bessel._AT_ONE_BITS == bessel._bits_at_one(151) == 1149
        assert bessel._AT_ONE == tuple(bessel._bessel_floors(151, bessel._AT_ONE_BITS))


class TestEnclosure:
    def test_order_zero_at_one(self):
        enc = bessel_i_enclosure(0, 1.0)
        assert enc.lo == 1.0
        assert enc.hi == pytest.approx(COSH_1, rel=1e-15)
        assert enc.contains(I0_AT_1, strict=True)

    def test_order_one_at_one(self):
        enc = bessel_i_enclosure(1, 1.0)
        assert enc.lo == pytest.approx(0.5, rel=1e-15)
        assert enc.hi == pytest.approx(COSH_1 / 2, rel=1e-15)
        assert enc.contains(I1_AT_1, strict=True)

    def test_collapses_near_zero(self):
        enc = bessel_i_enclosure(0, 1e-8)
        assert enc.lo == pytest.approx(1.0, rel=1e-14)
        assert enc.hi == pytest.approx(1.0, rel=1e-14)
        assert enc.width < 1e-15

    @pytest.mark.parametrize("n", range(0, 31))
    @pytest.mark.parametrize("x", GRID_X)
    def test_series_value_strictly_inside(self, n, x):
        enc = bessel_i_enclosure(n, x)
        assert enc.lo < bessel_i(n, x) < enc.hi

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            bessel_i_enclosure(0, -0.5)

    @pytest.mark.parametrize("n, x", (
        (200, 1.0), (160, 1.0), (150, 1.0), (1000, 2.0), (3, 5e-324), (0, 5e-324), (1, 1e-8),
        (0, 1e-8), (30, 0.1), (300, 450.0), (2000, 700.0), (238, 476.0875), (0, 710.4758600739439),
    ))
    def test_holds_the_40_digit_value(self, n, x):
        enc = bessel_i_enclosure(n, x)
        with mp.workdps(40):
            assert enc.lo <= mp.besseli(n, x) <= enc.hi

    def test_an_underflowing_leading_term_rounds_outward(self):
        assert bessel_i_enclosure(200, 1.0) == Interval(0.0, 5e-324)
        assert bessel_i_enclosure(150, 1.0).lo > 0.0

    # the limits the docstring and the README state
    @pytest.mark.parametrize("n, x", (
        (0, 800.0), (0, math.inf), (0, math.nextafter(710.4758600739439, math.inf)),
        (300, 700.0), (238, 476.0876),
    ))
    def test_an_upper_end_past_the_float_range_is_a_domain_error(self, n, x):
        with pytest.raises(DomainError, match="float range"):
            bessel_i_enclosure(n, x)


class TestRatioBound:
    def test_generic_bound_at_one(self):
        bound = bessel_ratio_bound(0, 1.0)
        assert bound == pytest.approx(COSH_1 / 2, rel=1e-15)
        assert bessel_i(1, 1.0) / bessel_i(0, 1.0) <= bound

    def test_specialized_is_exact_rational(self):
        assert bessel_ratio_bound(9, 1.0, specialize=True) == Fraction(4, 50)
        assert float(bessel_ratio_bound(9, 1.0, specialize=True)) == pytest.approx(0.08)

    def test_specialized_requires_x_one(self):
        with pytest.raises(DomainError):
            bessel_ratio_bound(3, 0.5, specialize=True)

    @pytest.mark.parametrize("n", range(0, 31))
    @pytest.mark.parametrize("x", GRID_X)
    def test_bound_soundness(self, n, x):
        ratio = bessel_i(n + 1, x) / bessel_i(n, x)
        assert ratio <= bessel_ratio_bound(n, x)

    @pytest.mark.parametrize("n", range(0, 31))
    def test_specialized_bound_soundness(self, n):
        # float-vs-Fraction comparison is exact rational comparison
        ratio = bessel_i(n + 1, 1.0) / bessel_i(n, 1.0)
        assert ratio <= bessel_ratio_bound(n, 1.0, specialize=True)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            bessel_ratio_bound(0, 0.0)

    # past x = 710.4758600739439 math.cosh overflows; at 710 the product does
    @pytest.mark.parametrize("x", (800.0, math.inf, 710.0, math.nextafter(710.4758600739439, math.inf)))
    def test_past_the_float_range_is_a_domain_error(self, x):
        with pytest.raises(DomainError, match="float range"):
            bessel_ratio_bound(0, x)


class TestRatioBoundRoundsUp:
    """The generic bound, cosh(x) x / (2(n+1)) with the float math.cosh(x),
    rounded up: it holds because I_{n+1}(x)/I_n(x) < x/(2(n+1)) term by term
    and math.cosh(x) >= 1."""

    TINY_X = (1e-9, 3e-9, 7.3e-10, 1e-12, 1e-20, 1e-300)

    @pytest.mark.parametrize("x", TINY_X)
    def test_at_least_the_exact_term_ratio_bound(self, x):
        for n in range(40):
            assert Fraction(bessel_ratio_bound(n, x)) >= Fraction(x) / (2 * (n + 1)), n

    # at 1e-300 the slack, about x^2 relative, is below what 60 digits resolve:
    # the exact check above covers it
    @pytest.mark.parametrize("x", (1e-9, 3e-9, 7.3e-10))
    def test_holds_the_60_digit_ratio(self, x):
        with mp.workdps(60):
            for n in range(40):
                ratio = mp.besseli(n + 1, x) / mp.besseli(n, x)
                assert mp.mpf(bessel_ratio_bound(n, x)) >= ratio, n

    def test_one_ulp_above_where_rounding_to_nearest_fell_below_the_ratio(self):
        # 1e-10, the nearest float to the bound, lies below I_5(1e-9)/I_4(1e-9)
        assert bessel_ratio_bound(4, 1e-9) == math.nextafter(1e-10, math.inf)

    # past x = 710.4758600739439, where math.cosh overflows, the factor is
    # fl(e^(x/2))^2 / 2: at least 1, and within a few ulps of cosh(x)
    @pytest.mark.parametrize("n, x", ((10**6, 711.0), (10**130, 1000.0), (10**320, 1419.565425786768)),
                             ids=("711", "1000", "last-exp"))
    def test_past_the_cosh_range_a_finite_bound_holds(self, n, x):
        bound = bessel_ratio_bound(n, x)
        assert Fraction(bound) >= Fraction(x) / (2 * (n + 1))
        with mp.workdps(60):
            assert mp.mpf(bound) == pytest.approx(mp.cosh(x) * x / (2 * (n + 1)), rel=1e-15)

    def test_past_the_exp_range_is_a_domain_error(self):
        # e^(x/2) overflows, although the bound would be a float
        with pytest.raises(DomainError, match="float range"):
            bessel_ratio_bound(10**400, math.nextafter(1419.565425786768, math.inf))

    def test_a_finite_bound_where_cosh_x_times_x_overflows(self):
        x = 710.4758600739439
        bound = bessel_ratio_bound(1000, x)
        assert bound == pytest.approx(6.38e307, rel=1e-3)
        assert Fraction(bound) >= Fraction(math.cosh(x)) * Fraction(x) / 2002 > Fraction(bound) * (1 - 2**-52)


class TestRatioToFloat:
    @pytest.mark.parametrize("num, den", (
        (1, 3), (2, 3), (10, 7), (0, 5), (1, 1 << 1075), (3, 1 << 1076), (1, 1 << 1080),
        (2**1024 - 2**970 - 1, 1), (2**1024 - 2**971, 1), ((1 << 600) + 1, 1 << 600), (12345, 1 << 60),
    ))
    def test_rounds_to_the_float_on_each_side(self, num, den):
        exact = Fraction(num, den)
        near = bessel._ratio_to_float(num, den)
        down, up = bessel._ratio_to_float(num, den, -1), bessel._ratio_to_float(num, den, 1)
        assert near == num / den
        assert down <= exact <= up
        assert near in (down, up)
        if down == up:
            assert Fraction(down) == exact
        else:
            assert math.nextafter(down, math.inf) == up

    @pytest.mark.parametrize("num", (2**1024 - 2**970, 2**1024, 2**2000))
    def test_past_the_float_range(self, num):
        assert bessel._ratio_to_float(num, 1) == math.inf
        assert bessel._ratio_to_float(num, 1, 1) == math.inf
        assert bessel._ratio_to_float(num, 1, -1) == sys.float_info.max

    def test_just_above_the_largest_float_rounds_up_to_inf(self):
        num = (2**1024 - 2**971) * 2 + 1
        assert bessel._ratio_to_float(num, 2) == sys.float_info.max
        assert bessel._ratio_to_float(num, 2, -1) == sys.float_info.max
        assert bessel._ratio_to_float(num, 2, 1) == math.inf


def _reference_float_toward(q: Fraction, up: bool) -> float:
    f = float(q)
    if f < q if up else f > q:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def _reference_enclosure(n, x):
    """bessel_i_enclosure with its ends rounded through Fractions: the reference for the integer rounding."""
    n, x = bessel._check_order_and_x(n, x)
    overflow = DomainError(f"the enclosure of I_{n}({x!r}) exceeds the float range")
    if not x <= 710.4758600739439:
        raise overflow
    m, e = bessel._leading_term_frexp(n, x)
    value, rel = Fraction(m) * Fraction(2) ** e, Fraction(4 * n, 2**53)
    lo, hi = value * (1 - rel), value * (1 + rel) * Fraction(math.cosh(x)) * (1 + Fraction(1, 2**50))
    if hi > Fraction(sys.float_info.max):
        raise overflow
    return Interval(_reference_float_toward(lo, up=False), _reference_float_toward(hi, up=True))


def _reference_bessel_i(n, x):
    """bessel_i with its bounds checked against 2^1024 - 2^970 and rounded by int / int: the reference."""
    n, x = bessel._check_order_and_x(n, x)
    overflow = DomainError(f"I_{n}({x!r}) exceeds the float range")
    e = bessel._leading_term_frexp(n, x)[1]
    if x <= 710.4758600739439 and e + math.frexp(math.cosh(x))[1] + 2 <= -1075:
        return 0.0
    if e >= 1026 or 8 * (1026 - e) * (1026 - e + n) <= x * x:
        raise overflow
    inf_at = 2**1024 - 2**970
    for bits in itertools.count(max(0, bessel._ZIV_BITS + 2 - e), bessel._ZIV_BITS):
        lo, hi = series_sum(n, x, bits)
        if lo >= inf_at << bits:
            raise overflow
        if hi < inf_at << bits and lo / (1 << bits) == hi / (1 << bits):
            return lo / (1 << bits)


def _outcome(fn, n, x):
    try:
        return fn(n, x)
    except DomainError as exc:
        return ("DomainError", str(exc))


def _reference_cases(seed):
    """A deterministic spread of (n, x) over the float range of the results.

    Half the draws aim the leading term (x/2)^n/n! at e^t, t uniform in
    [-770, 720], so they land from below the subnormals to past the largest
    float; the rest take x log-uniform, for every n up to 2000 and down to
    subnormal x for small n.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(200):
        n = rng.randrange(1, 1000)
        cases.append((n, min(2 * math.exp((math.lgamma(n + 1) + rng.uniform(-770, 720)) / n), 720.0)))
    for count, max_n, min_x in ((140, 2001, 1e-3), (120, 60, 1e-320)):
        lo, hi = math.log(min_x), math.log(720.0)
        cases += [(rng.randrange(max_n), math.exp(rng.uniform(lo, hi))) for _ in range(count)]
    return cases


_COSH_LAST = 710.4758600739439
_I0_LAST = 713.9869085439683
ENCLOSURE_EDGES = [
    (200, 1.0), (160, 1.0), (150, 1.0), (0, 1.0), (1, 1.0), (0, 1e-8), (3, 5e-324), (0, 5e-324),
    (238, 476.0875), (238, 476.0876), (237, 476.0876), (300, 450.0), (300, 700.0), (2000, 700.0),
    (1999, 720.0), (0, math.inf), (0, 1e300),
    *((n, x) for n in (0, 1, 2, 100, 1000, 2000) for x in (_COSH_LAST, math.nextafter(_COSH_LAST, math.inf))),
]
BESSEL_I_EDGES = [
    (0, _I0_LAST), (0, math.nextafter(_I0_LAST, 0.0)), (1, _I0_LAST), (0, math.inf), (0, 1.0),
    (150, 1.0), (156, 1.0), (157, 1.0), (3, 5e-324), (1000, 2.0), (2, 37.5),
]


class TestAgainstTheFractionReference:
    """The integer rounding gives the bits, and the DomainError messages, that
    the Fraction rounding gave: the rationals are the same, only their
    rounding moved."""

    def test_enclosure(self):
        cases = ENCLOSURE_EDGES + _reference_cases(seed=21)
        assert len(cases) > 480
        bad = [(n, x) for n, x in cases
               if _outcome(bessel_i_enclosure, n, x) != _outcome(_reference_enclosure, n, x)]
        assert not bad

    def test_bessel_i(self):
        cases = BESSEL_I_EDGES + [(n, x) for n, x in _reference_cases(seed=22) if n < 300]
        bad = [(n, x) for n, x in cases if _outcome(bessel_i, n, x) != _outcome(_reference_bessel_i, n, x)]
        assert not bad


class TestOrders:
    FUNCTIONS = (bessel_i, bessel_i_enclosure, bessel_ratio_bound, recurrence_residual)

    @pytest.mark.parametrize("fn", FUNCTIONS)
    @pytest.mark.parametrize("n", (2.5, 3.0, "3", None))
    def test_a_non_integer_order_is_a_domain_error(self, fn, n):
        with pytest.raises(DomainError, match="non-negative integer"):
            fn(n, 1.0)

    @pytest.mark.parametrize("fn", FUNCTIONS)
    def test_numpy_scalars_give_python_floats(self, fn):
        got = fn(np.int64(3), np.float64(1.0))
        values = (got.lo, got.hi) if isinstance(got, Interval) else (got,)
        assert all(type(v) is float for v in values)
        assert got == fn(3, 1.0)


class TestRecurrence:
    @pytest.mark.parametrize("n", (1, 5))
    def test_examples_at_one(self, n):
        assert recurrence_residual(n, 1.0) <= 1e-12 * n * bessel_i(n, 1.0)

    def test_vanishes_near_zero(self):
        assert recurrence_residual(1, 1e-8) < 1e-16

    @pytest.mark.parametrize("n", range(1, 31))
    @pytest.mark.parametrize("x", (0.5, 1.0, 2.0))
    def test_relative_residual_small(self, n, x):
        rel = recurrence_residual(n, x) / (n * bessel_i(n, x))
        assert rel <= 1e-12

    def test_needs_order_at_least_one(self):
        with pytest.raises(DomainError):
            recurrence_residual(0, 1.0)


def test_interval_validation():
    from chebbound import Interval

    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
