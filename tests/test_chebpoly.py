import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from chebbound import (
    ChebSeries,
    DomainError,
    clenshaw_eval,
    differentiate,
    eval_T,
    eval_U,
    partial_sum,
    taylor_eval,
    u_to_t,
)
from chebbound.chebpoly import differentiate_coeffs


class TestEvalT:
    def test_endpoint_minus_one(self):
        assert eval_T(3, -1.0) == -1.0

    def test_quadratic(self):
        assert eval_T(2, -2.0) == 7.0

    def test_hyperbolic_oracle(self):
        expected = math.cosh(10 * math.acosh(1.5))
        assert eval_T(10, -1.5) == pytest.approx(expected, rel=1e-12)

    def test_array_input(self):
        xs = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(eval_T(2, xs), [1.0, -1.0, 1.0])

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            eval_T(-1, 0.0)

    @pytest.mark.parametrize("n", range(0, 65))
    def test_endpoints_exact(self, n):
        assert eval_T(n, 1.0) == 1.0
        assert eval_T(n, -1.0) == (-1.0) ** n


class TestEvalU:
    def test_root_of_u2(self):
        assert eval_U(2, 0.5) == 0.0

    def test_u_minus_one_is_zero(self):
        assert eval_U(-1, 123.4) == 0.0

    def test_hyperbolic_oracle(self):
        t = math.acosh(1.2)
        expected = -math.sinh(6 * t) / math.sinh(t)
        assert eval_U(5, -1.2) == pytest.approx(expected, rel=1e-11)

    def test_rejects_order_below_minus_one(self):
        with pytest.raises(DomainError):
            eval_U(-2, 0.0)


@pytest.mark.parametrize("n", range(0, 33))
def test_parity_symmetry(n):
    xs = np.linspace(-3.0, 3.0, 50)
    sign = (-1.0) ** n
    t_pos = eval_T(n, xs)
    t_neg = eval_T(n, -xs)
    np.testing.assert_allclose(t_neg, sign * t_pos, rtol=1e-13, atol=1e-300)
    u_pos = eval_U(n, xs)
    u_neg = eval_U(n, -xs)
    np.testing.assert_allclose(u_neg, sign * u_pos, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", range(0, 65))
def test_hyperbolic_consistency(n):
    # |x| from 1.001 to about 1e4 on both sides: T_n(-x) = (-1)^n T_n(x), same for U_n
    ts = np.linspace(0.05, 9.9, 40)
    for sign in (1.0, -1.0):
        xs = sign * np.cosh(ts)
        parity = sign**n
        np.testing.assert_allclose(eval_T(n, xs), parity * np.cosh(n * ts), rtol=1e-11)
        np.testing.assert_allclose(
            eval_U(n, xs) * np.sinh(ts), parity * np.sinh((n + 1) * ts), rtol=1e-11
        )


class TestClenshaw:
    def test_constant(self):
        assert clenshaw_eval(ChebSeries(np.array([1.0])), 42.0) == 1.0

    def test_linear(self):
        assert clenshaw_eval(ChebSeries(np.array([0.0, 1.0])), -3.0) == -3.0

    def test_short_series(self):
        assert clenshaw_eval(ChebSeries(np.array([1.0, 2.0, 3.0])), -2.0) == 18.0

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(20240112)
        xs = np.concatenate([np.linspace(-10.0, 10.0, 41), [-50.0, -25.0, 25.0, 50.0]])
        for degree in (1, 5, 17, 64):
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            s = ChebSeries(coeffs)
            naive = sum(c * eval_T(j, xs) for j, c in enumerate(coeffs))
            np.testing.assert_allclose(clenshaw_eval(s, xs), naive, rtol=1e-13, atol=1e-13)


class TestDifferentiate:
    def test_t2_derivative(self):
        out = differentiate(ChebSeries(np.array([0.0, 0.0, 1.0])))
        np.testing.assert_allclose(out.coeffs, [0.0, 4.0])

    def test_constant_derivative_is_zero_series(self):
        out = differentiate(ChebSeries(np.array([5.0])))
        assert out.coeffs.tolist() == [0.0]

    def test_integer_coefficients_stay_exact_integers(self):
        # d_0 = c_1 + 3 c_3 + 5 c_5 + ...: halving d_2 in floats would round it
        assert differentiate_coeffs([0, 1, 0, 10**20 + 1]) == [
            300000000000000000004, 0, 600000000000000000006]
        coeffs = [(-1) ** k * (10**18 + 7 * k) for k in range(12)]
        got = differentiate_coeffs(coeffs)
        assert all(type(v) is int for v in got)
        assert got == differentiate_coeffs([Fraction(c) for c in coeffs])

    def test_against_finite_differences(self):
        f4 = partial_sum(4)
        d = differentiate(f4)
        h = 1e-4
        xs = np.linspace(-3.0, 3.0, 31)
        fd = (clenshaw_eval(f4, xs + h) - clenshaw_eval(f4, xs - h)) / (2 * h)
        np.testing.assert_allclose(clenshaw_eval(d, xs), fd, atol=1e-7)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_matches_n_times_u(self, n):
        unit = np.zeros(n + 1)
        unit[n] = 1.0
        d = differentiate(ChebSeries(unit))
        xs = np.linspace(-3.0, 3.0, 40)
        np.testing.assert_allclose(
            clenshaw_eval(d, xs), n * eval_U(n - 1, xs), rtol=1e-12, atol=1e-12
        )


class TestUtoT:
    def test_u0(self):
        assert u_to_t(0).coeffs.tolist() == [1.0]

    def test_u1(self):
        assert u_to_t(1).coeffs.tolist() == [0.0, 2.0]

    def test_u4(self):
        assert u_to_t(4).coeffs.tolist() == [1.0, 0.0, 2.0, 0.0, 2.0]

    def test_u4_pointwise(self):
        xs = np.linspace(-2.0, 2.0, 20)
        np.testing.assert_allclose(
            clenshaw_eval(u_to_t(4), xs), eval_U(4, xs), rtol=1e-13, atol=1e-13
        )

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            u_to_t(-1)


def test_a_series_keeps_a_read_only_copy():
    cases = (
        ((1.0, -0.0, 2.5), (1.0, -0.0, 2.5)),
        ([1.0, -0.5, 3.0], (1.0, -0.5, 3.0)),
        ([1, 2, 3], (1.0, 2.0, 3.0)),
        (np.array([0.1, -0.0, 1e300]), (0.1, -0.0, 1e300)),
    )
    for given, values in cases:
        s = ChebSeries(given)
        assert s.values == values and all(type(v) is float for v in s.values)
        assert s.degree == len(values) - 1
        if not isinstance(given, tuple):
            given[1] = 7
        assert s.values == values
        assert s.coeffs is s.coeffs
        assert s.coeffs.dtype == np.float64 and not s.coeffs.flags.writeable
        assert s.coeffs.tobytes() == struct.pack(f"={len(values)}d", *values)
        with pytest.raises(ValueError):
            s.coeffs[1] = 0.0
        assert s.values == values
    coeffs = np.array([1.0, 2.0, 3.0])
    s = ChebSeries(coeffs)
    coeffs[1] = 0.0
    assert clenshaw_eval(s, -2.0) == clenshaw_eval(s, np.array([-2.0]))[0] == 18.0


def test_series_validation():
    cases = (
        ([], "at least one coefficient"),
        (np.array([]), "at least one coefficient"),
        (np.array([[1.0, 2.0]]), "at least one coefficient"),
        (np.array([[1.0], [2.0]]), "at least one coefficient"),
        ([[1.0], [2.0]], "at least one coefficient"),
        (np.array(3.0), "at least one coefficient"),
        (5.0, "at least one coefficient"),
        ("12", "at least one coefficient"),
        (np.array([1.0, np.nan]), "finite"),
        ([float("inf")], "finite"),
        (np.array([1.0, -np.inf]), "finite"),
    )
    for given, message in cases:
        with pytest.raises(ValueError, match=message):
            ChebSeries(given)
    assert ChebSeries(np.array([1.0, 0.0, 2.0])).degree == 2


def test_series_compare_and_hash_by_values():
    a, b = ChebSeries(np.array([1.0, 2.0])), ChebSeries([1, 2])
    assert a == b and hash(a) == hash(b)
    assert a != ChebSeries([1.0, 2.5])
    s = partial_sum(3)
    assert s == ChebSeries(s.coeffs) and hash(s) == hash(ChebSeries(s.values))
    assert len({s, ChebSeries(s.values), partial_sum(4)}) == 2


SCALAR_INPUTS = (-3, -2.5, np.float64(-2.5), np.array(-2.5))
EVALUATORS = {
    "clenshaw_eval": lambda x: clenshaw_eval(partial_sum(6), x),
    "eval_T": lambda x: eval_T(5, x),
    "eval_U": lambda x: eval_U(5, x),
    "taylor_eval": lambda x: taylor_eval(5, x),
}


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize("x", SCALAR_INPUTS, ids=("int", "float", "float64", "0-d"))
def test_a_scalar_point_gives_a_python_float(name, x):
    evaluate = EVALUATORS[name]
    out = evaluate(x)
    assert type(out) is float
    # the same bits as the point inside an array
    assert out == evaluate(np.array([x], dtype=np.float64))[0]


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize("shape", ((3,), (2, 3)))
def test_an_array_of_points_gives_an_array_of_its_shape(name, shape):
    out = EVALUATORS[name](np.full(shape, -2.5))
    assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
