import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from chebbound import (
    DomainError,
    bessel_i,
    bessel_ratio_bound,
    cheb_sandwich,
    clenshaw_eval,
    endpoint_gap,
    exp_cheb_coefficients,
    partial_sum,
    sup_error_comparison,
    taylor_eval,
    taylor_sandwich,
)
from chebbound import bessel, expseries

# frozen from the 80-digit oracle
A_FIRST_THREE = (1.2660658777520084, 1.1303182079849703, 0.27149533953407656)
F1_AT_MINUS_2 = -0.9945705382179317
F2_AT_MINUS_2 = 0.9058968385206042
CHEB_SUP_ERR_5 = 4.8386585318801627e-05
TAYLOR_SUP_ERR_5 = 0.0016151617923785687


class TestCoefficients:
    def test_first_three(self):
        np.testing.assert_allclose(exp_cheb_coefficients(2), A_FIRST_THREE, rtol=1e-13)

    def test_single_coefficient(self):
        np.testing.assert_allclose(exp_cheb_coefficients(0), A_FIRST_THREE[:1], rtol=1e-13)

    def test_all_positive_and_decreasing(self):
        a = exp_cheb_coefficients(32)
        assert np.all(a > 0)
        assert np.all(np.diff(a[1:]) < 0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_decay_ratio_bound(self, n):
        a = exp_cheb_coefficients(31)
        assert a[n + 1] / a[n] <= bessel_ratio_bound(n, 1.0, specialize=True)

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            exp_cheb_coefficients(-1)

    def test_locked_bit_for_bit_up_to_the_series_limit(self):
        # a_150 is the last coefficient above the smallest normal float
        assert hashlib.sha256(exp_cheb_coefficients(150).tobytes()).hexdigest() == (
            "190262ffbc4275202749690fa1c0a2617d34c89021fdd25e0dc625ae74b71ef1"
        )

    def test_each_coefficient_is_correctly_rounded(self):
        with mp.workdps(oracles.DPS):
            expected = [float(mp.nstr(a, 60)) for a in oracles.mp_exp_cheb_coeffs(150)]
        assert exp_cheb_coefficients(150).tolist() == expected

    def test_a_subnormal_coefficient_is_a_domain_error(self):
        assert exp_cheb_coefficients(150)[-1] >= sys.float_info.min > 2.0 * bessel_i(151, 1.0) > 0.0
        for call, n in ((partial_sum, 151), (exp_cheb_coefficients, 151), (exp_cheb_coefficients, 152),
                        (exp_cheb_coefficients, 10**6)):
            with pytest.raises(DomainError, match=f"a_{n} is below the smallest normal float; "
                                                  "the last above it is a_150$"):
                call(n)


    def test_each_coefficient_is_the_rounded_bessel_value(self):
        # bessel_i runs its own Ziv loop per order, apart from the table
        values = partial_sum(150).values
        assert len(values) == 151
        for k, a in enumerate(values):
            assert a == (2.0 if k else 1.0) * bessel_i(k, 1.0), k

    def test_a_table_whose_ends_round_apart_is_refused(self, monkeypatch):
        # without the bits below I_151(1) its integer is a few units wide,
        # and v_151 and v_151 + 2 round to different floats
        bits = bessel._AT_ONE_BITS - 117
        monkeypatch.setattr(expseries, "_AT_ONE", tuple(bessel._bessel_floors(151, bits)))
        monkeypatch.setattr(expseries, "_AT_ONE_BITS", bits)
        with pytest.raises(ArithmeticError, match="settle"):
            expseries._coefficients()

class TestPartialSum:
    def test_degree_one_at_minus_two(self):
        assert clenshaw_eval(partial_sum(1), -2.0) == pytest.approx(F1_AT_MINUS_2, rel=1e-12)

    def test_degree_two_at_minus_two(self):
        assert clenshaw_eval(partial_sum(2), -2.0) == pytest.approx(F2_AT_MINUS_2, rel=1e-12)

    def test_degree_zero_is_constant(self):
        s = partial_sum(0)
        assert clenshaw_eval(s, -7.3) == clenshaw_eval(s, 4.2)

    def test_one_shared_read_only_series_per_degree(self):
        s = partial_sum(7)
        assert partial_sum(7) is s
        assert s.coeffs.tolist() == exp_cheb_coefficients(7).tolist()
        with pytest.raises(ValueError):
            s.coeffs[0] = 0.0

    def test_coefficients_stay_fresh_and_writable(self):
        partial_sum(7)
        a, b = exp_cheb_coefficients(7), exp_cheb_coefficients(7)
        assert a is not b and a.flags.writeable
        a[0] = 0.0
        assert b[0] == exp_cheb_coefficients(7)[0] == partial_sum(7).coeffs[0] != 0.0


class TestTaylorEval:
    def test_linear(self):
        assert taylor_eval(1, -0.5) == 0.5

    def test_cubic_at_minus_one(self):
        assert taylor_eval(3, -1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_degree_zero(self):
        assert taylor_eval(0, 123.0) == 1.0

    def test_array_input(self):
        xs = np.array([-1.0, 0.0])
        np.testing.assert_allclose(taylor_eval(1, xs), [0.0, 1.0])

    def test_degree_zero_is_one_everywhere(self):
        xs = np.array([-math.inf, -2.0, -0.0, math.inf, math.nan])
        assert taylor_eval(0, xs).tolist() == [1.0] * 5
        assert [taylor_eval(0, x) for x in xs.tolist()] == [1.0] * 5


class TestTaylorSandwich:
    def test_degree_one_at_minus_one(self):
        enc = taylor_sandwich(1, -1.0)
        assert enc.lower == 0.0
        assert enc.upper == 0.5
        assert enc.lower <= math.exp(-1.0) <= enc.upper

    def test_degree_three_at_minus_two(self):
        enc = taylor_sandwich(3, -2.0)
        assert enc.lower == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert enc.upper == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_degree_five_width(self):
        enc = taylor_sandwich(5, -1.0)
        assert enc.upper - enc.lower == pytest.approx(1.0 / 720.0, rel=1e-12)
        assert enc.lower <= math.exp(-1.0) <= enc.upper

    def test_rejects_even_degree(self):
        with pytest.raises(DomainError):
            taylor_sandwich(2, -1.0)

    def test_rejects_nonnegative_x(self):
        with pytest.raises(DomainError):
            taylor_sandwich(3, 0.0)

    @pytest.mark.parametrize("n, x, message", (
        [(n, -1.0, "the Maclaurin bracket needs an odd degree") for n in (2, 4, 150)]
        + [(0, -1.0, "the Maclaurin bracket needs an integer >= 1, not 0"),
           (2.0, -1.0, "the Maclaurin bracket needs an integer >= 1, not 2.0"),
           # the degree is checked before the point
           (2, 1.0, "the Maclaurin bracket needs an odd degree")]
        + [(3, x, "the Maclaurin bracket holds for x < 0 only")
           for x in (0.0, -0.0, 0, 5e-324, 1.0, math.inf, math.nan)]
    ))
    def test_refusals_keep_their_messages(self, n, x, message):
        with pytest.raises(DomainError) as excinfo:
            taylor_sandwich(n, x)
        assert str(excinfo.value) == message


class TestChebSandwich:
    def test_pair_one_at_minus_two(self):
        enc = cheb_sandwich(1, -2.0)
        assert enc.lower == pytest.approx(F1_AT_MINUS_2, rel=1e-12)
        assert enc.upper == pytest.approx(F2_AT_MINUS_2, rel=1e-12)
        assert enc.lower <= math.exp(-2.0) <= enc.upper
        assert (enc.lower_degree, enc.upper_degree) == (1, 2)

    def test_pair_three_at_minus_1p5(self):
        enc = cheb_sandwich(3, -1.5)
        ref = oracles.mp_exp(mp.mpf("-1.5"))
        assert enc.lower <= ref <= enc.upper

    def test_pair_ten_at_minus_thirty(self):
        enc = cheb_sandwich(10, -30.0)
        ref = oracles.mp_exp(-30)
        assert enc.lower <= ref <= enc.upper
        assert enc.lower < 0 < enc.upper

    @pytest.mark.parametrize("x", (-1.0, -0.5, 0.0, 2.0, -1, Fraction(-1), -0.0, math.inf, math.nan))
    def test_rejects_x_at_or_above_minus_one(self, x):
        with pytest.raises(DomainError):
            cheb_sandwich(1, x)

    def test_rejects_nonpositive_pair_index(self):
        with pytest.raises(DomainError):
            cheb_sandwich(0, -2.0)

    @pytest.mark.parametrize("n, x, message", (
        # pairs 76 on need a_151 or later, below the smallest normal float
        [(n, -2.0, f"a_{2 * n - 1} is below the smallest normal float; the last above it is a_150")
         for n in range(76, 81)]
        + [(0, -2.0, "the Chebyshev bracket needs an integer >= 1, not 0"),
           (2.5, -2.0, "the Chebyshev bracket needs an integer >= 1, not 2.5"),
           # the pair is checked before the point, and the point before the table
           (0, -0.5, "the Chebyshev bracket needs an integer >= 1, not 0"),
           (76, math.nan, "the Chebyshev bracket is certified on x < -1 only"),
           (1, -1.0, "the Chebyshev bracket is certified on x < -1 only"),
           (1, math.nan, "the Chebyshev bracket is certified on x < -1 only")]
    ))
    def test_refusals_keep_their_messages(self, n, x, message):
        with pytest.raises(DomainError) as excinfo:
            cheb_sandwich(n, x)
        assert str(excinfo.value) == message


class TestSandwichContainment:
    """The bracket inequality with both sides in extended precision."""

    def test_containment_on_log_grid(self):
        grid = -np.geomspace(1e4, 1.0 + 1e-6, 60)
        for x in grid:
            sums = oracles.mp_partial_sums(x, 32)
            ref = oracles.mp_exp(x)
            for n_pair in range(1, 17):
                assert sums[2 * n_pair - 1] < ref < sums[2 * n_pair]

    def test_double_path_tracks_extended_path(self):
        # 1e-9 leaves headroom over the conditioning of the alternating sums
        # at moderate negative x (observed worst ~3e-11)
        grid = -np.geomspace(1e4, 1.0 + 1e-6, 25)
        for x in grid:
            sums = oracles.mp_partial_sums(x, 32)
            for n_pair in (1, 4, 8, 12, 16):
                enc = cheb_sandwich(n_pair, float(x))
                for got, want in ((enc.lower, sums[2 * n_pair - 1]), (enc.upper, sums[2 * n_pair])):
                    scale = max(1.0, abs(float(want)))
                    assert abs(got - float(want)) <= 1e-9 * scale


class TestAlternation:
    """Monotone nesting of the bounds in the pair index is empirical only.

    Near the domain edge the lower bounds rise and the upper bounds fall as
    the pair index grows; far from it the growth of T_n wins and the nesting
    genuinely breaks.  Both behaviours are pinned down here.
    """

    def test_nesting_holds_near_edge(self):
        # consecutive differences shrink below double resolution, so the
        # ordering of the true sums is read off in extended precision
        sums = oracles.mp_partial_sums(mp.mpf("-1.05"), 20)
        lowers = [sums[2 * n - 1] for n in range(1, 11)]
        uppers = [sums[2 * n] for n in range(1, 11)]
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))
        assert all(b <= a for a, b in zip(uppers, uppers[1:]))

    def test_nesting_breaks_far_from_edge(self):
        sums = oracles.mp_partial_sums(mp.mpf(-10), 20)
        lowers = [sums[2 * n - 1] for n in range(1, 11)]
        assert any(b < a for a, b in zip(lowers, lowers[1:]))


class TestEndpointGap:
    def test_degree_zero(self):
        assert endpoint_gap(0) == pytest.approx(0.8981864365805659, rel=1e-12)

    def test_degree_one_sign(self):
        assert endpoint_gap(1) <= 0.0
        assert endpoint_gap(1) == pytest.approx(-0.23213177140440405, rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 33))
    def test_sign_pattern(self, n):
        gap = endpoint_gap(n)
        if n % 2 == 0:
            assert gap >= -1e-13
        else:
            assert gap <= 1e-13

    def test_converges_to_zero(self):
        assert abs(endpoint_gap(40)) <= 1e-13

    @pytest.mark.parametrize("n", (2, 4, 8, 16))
    def test_even_truncations_dominate_exp_at_endpoint(self, n):
        # the even-degree partial sum a_0 + sum(-a_{2k-1} + a_{2k}) at -1
        # stays above exp(-1); checked in extended precision
        sums = oracles.mp_partial_sums(mp.mpf(-1), n)
        assert sums[n] >= oracles.mp_exp(-1)


class TestSupErrorComparison:
    def test_degree_five(self):
        cheb_err, taylor_err = sup_error_comparison(5, 1000)
        assert cheb_err == pytest.approx(CHEB_SUP_ERR_5, rel=1e-9)
        assert taylor_err == pytest.approx(TAYLOR_SUP_ERR_5, rel=1e-9)
        assert cheb_err < taylor_err

    def test_degree_one(self):
        cheb_err, taylor_err = sup_error_comparison(1, 1000)
        assert cheb_err < taylor_err

    def test_degree_zero(self):
        cheb_err, taylor_err = sup_error_comparison(0, 1000)
        assert cheb_err <= taylor_err

    def test_true_error_decreases_monotonically(self):
        # computed in extended precision: the double path saturates at
        # rounding level near degree 14
        grid = [mp.mpf(-1) + mp.mpf(2) * k / 399 for k in range(400)]
        worst = [mp.mpf(0)] * 17
        for x in grid:
            sums = oracles.mp_partial_sums(x, 16)
            ref = oracles.mp_exp(x)
            for n in range(17):
                err = abs(sums[n] - ref)
                if err > worst[n]:
                    worst[n] = err
        assert all(b < a for a, b in zip(worst, worst[1:]))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sup_error_comparison(3, 99)
