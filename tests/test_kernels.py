import math
from fractions import Fraction

import numpy as np

from chebbound import _kernels, exp_cheb_coefficients
from chebbound.chebpoly import u_to_t_coeffs


def test_numpy_path_values():
    xs = np.array([-2.0, 0.5])
    np.testing.assert_allclose(
        _kernels.clenshaw_kernel(np.array([1.0, 2.0, 3.0]), xs), [18.0, 0.5]
    )
    # T_2 from the unit vector e_2, U_{-1} from its zero T-basis expansion
    np.testing.assert_allclose(_kernels.clenshaw_kernel(np.array([0.0, 0.0, 1.0]), xs), [7.0, -0.5])
    np.testing.assert_allclose(_kernels.clenshaw_kernel(np.array([0.0]), xs), [0.0, 0.0])
    np.testing.assert_allclose(_kernels.taylor_kernel(1, xs), [-1.0, 1.5])
    np.testing.assert_allclose(_kernels.taylor_kernel(0, xs), [1.0, 1.0])


def test_kernels_match_scalar_loops_bit_for_bit():
    # the same IEEE operations point by point in Python floats give the same bits
    rng = np.random.default_rng(7)
    xs = rng.uniform(-10.0, 10.0, 257)
    coeffs = rng.uniform(-1.0, 1.0, 33)

    def clenshaw(x):
        b1 = b2 = 0.0
        for c in coeffs[:0:-1].tolist():
            b1, b2 = c + 2.0 * x * b1 - b2, b1
        return float(coeffs[0]) + x * b1 - b2

    def taylor(n, x):
        v = 1.0
        for k in range(n, 0, -1):
            v = 1.0 + v * x / k
        return v

    assert _kernels.clenshaw_kernel(coeffs, xs).tolist() == [clenshaw(x) for x in xs.tolist()]
    for n in (0, 1, 7, 32):
        assert _kernels.taylor_kernel(n, xs).tolist() == [taylor(n, x) for x in xs.tolist()]


# the coefficient vectors the package evaluates: exp truncations, the unit
# vectors behind eval_T and the U-to-T expansions behind eval_U
EXP_VECTORS = [exp_cheb_coefficients(n).tolist() for n in range(65)]
UNIT_VECTORS = [[0.0] * n + [1.0] for n in range(40)]
U_VECTORS = [[float(c) for c in u_to_t_coeffs(n)] for n in range(-1, 40)]
LOG_POINTS = (-np.geomspace(1e4, 1e-3, 120)).tolist()
LINEAR_POINTS = np.linspace(-1.0, 1.0, 61).tolist()
EDGE_POINTS = [-1.0 - 2.0**-52, -1.0001, 0.0, -0.0, 5e-324, -5e-324]
POINTS = LOG_POINTS + LINEAR_POINTS + EDGE_POINTS + [math.inf, -math.inf, math.nan]


def _assert_same_bits(floats, arr):
    got = np.array(floats)
    assert arr.dtype == np.float64 and got.shape == arr.shape
    assert np.isnan(got).tolist() == np.isnan(arr).tolist()
    finite = ~np.isnan(arr)
    # as integers, so -0.0 and +0.0 differ
    assert got[finite].view(np.uint64).tolist() == arr[finite].view(np.uint64).tolist()


def test_float_and_array_points_give_the_same_bits():
    xs = np.array(POINTS)
    # inf and nan points: Python floats stay silent where numpy warns
    with np.errstate(over="ignore", invalid="ignore"):
        for coeffs in EXP_VECTORS + UNIT_VECTORS + U_VECTORS:
            floats = [_kernels.clenshaw_kernel(coeffs, x) for x in POINTS]
            assert all(type(v) is float for v in floats)
            _assert_same_bits(floats, _kernels.clenshaw_kernel(coeffs, xs))
            # an ndarray of coefficients reads the same values
            _assert_same_bits(floats, _kernels.clenshaw_kernel(np.array(coeffs), xs))
        for n in range(65):
            floats = [_kernels.taylor_kernel(n, x) for x in POINTS]
            assert all(type(v) is float for v in floats)
            _assert_same_bits(floats, _kernels.taylor_kernel(n, xs))


def _exact_terms(coeffs, x):
    """a_k T_k(x) for each k, in exact rationals, by the three-term T recurrence."""
    x = Fraction(x)
    t_prev, t, terms = Fraction(1), x, [Fraction(coeffs[0])]
    for a in coeffs[1:]:
        terms.append(Fraction(a) * t)
        t_prev, t = t, 2 * x * t - t_prev
    return terms


def test_clenshaw_tracks_the_exact_sum_of_the_exp_truncations():
    # positive, fast-decaying coefficients: on [-1e4, 1] the rounding error
    # stays within (n+1) eps sum |a_k T_k(x)|.  Truncation n is the first
    # n+1 coefficients of the longest, so its sums are prefix sums.
    eps = Fraction(2) ** -52
    # every third grid point: the exact sums dominate the run time
    for x in LOG_POINTS[::3] + LINEAR_POINTS[::3] + EDGE_POINTS:
        exact = magnitude = Fraction(0)
        for n, term in enumerate(_exact_terms(EXP_VECTORS[-1], x)):
            exact += term
            magnitude += abs(term)
            assert EXP_VECTORS[n] == EXP_VECTORS[-1][:n + 1]
            got = _kernels.clenshaw_kernel(EXP_VECTORS[n], x)
            assert abs(Fraction(got) - exact) <= (n + 1) * eps * magnitude, (n, x)
