import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from chebbound import (
    DomainError,
    Interval,
    NonConvergenceError,
    bessel_i,
    bessel_i_enclosure,
    bessel_ratio_bound,
    recurrence_residual,
)

# frozen from the factorial-series oracle at 80 digits
I0_AT_1 = 1.2660658777520084
I1_AT_1 = 0.5651591039924851
I2_AT_1 = 0.1357476697670383
COSH_1 = 1.5430806348152437

GRID_X = (0.1, 0.5, 1.0, 2.0)


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
        # every bit, where the oracle check above allows 1e-13
        vals = np.array([bessel_i(n, x) for n in range(0, 31) for x in GRID_X], dtype=np.float64)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == (
            "e8cd820baf73ed7b1f5f9a51d9d388cec6aab8149e5f58156fa54c365826cab4"
        )

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

    def test_nonconvergence_signalled(self):
        with pytest.raises(NonConvergenceError):
            bessel_i(0, 1e3)

    # the limits of the fixed stop rule that the docs state; the digests above
    # do not move when the tolerance or the term cap change a little
    @pytest.mark.parametrize("n, x", ((150, 1.0), (170, 2.0), (0, 262.0)))
    def test_last_values_inside_the_limits(self, n, x):
        assert 0.0 < bessel_i(n, x) < math.inf

    @pytest.mark.parametrize("n, x", ((151, 1.0), (171, 2.0), (0, 263.0)))
    def test_first_values_past_the_limits_raise(self, n, x):
        with pytest.raises(NonConvergenceError):
            bessel_i(n, x)


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
