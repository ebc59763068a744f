import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from chebbound import _kernels, clenshaw_eval, eval_T, eval_U, exp_cheb_coefficients, partial_sum, taylor_eval
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


# --- blocked evaluation ------------------------------------------------------
# Every array is evaluated in place, _kernels.BLOCK points at a time; each
# evaluator must still give the bits of one operator-form kernel call on
# the whole array.
B = _kernels.BLOCK
EDGE_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, -1.0, 5e-324]


def _points(size):
    """Seeded points on [-30, 3], with the edge values spread over all blocks."""
    xs = np.random.default_rng(size).uniform(-30.0, 3.0, size)
    at = np.linspace(0, size - 1, min(size, len(EDGE_VALUES))).astype(int)
    xs[at] = EDGE_VALUES[:at.size]
    return xs


BLOCKED_INPUTS = {
    **{f"size {n}": _points(n) for n in (0, 1, B - 1, B, B + 1, 3 * B + 17)},
    "shape (2, B+3)": _points(2 * (B + 3)).reshape(2, B + 3),
    "shape (B+5, 1)": _points(B + 5).reshape(B + 5, 1),
    "strided": _points(3 * B + 17)[::3],
    "Fortran-ordered": np.asfortranarray(_points(3 * (B + 1)).reshape(B + 1, 3)),
    "int": np.arange(2 * B + 3) % 41 - 35,
    "float32": _points(2 * B + 1).astype(np.float32),
}


def _blocked_evaluators():
    """(evaluator, kernel, its argument) for each evaluator and degree."""
    for d in (0, 1, 2, 33, 64):
        s = partial_sum(d)
        yield (lambda x, s=s: clenshaw_eval(s, x)), _kernels.clenshaw_kernel, s.values
        yield (lambda x, d=d: eval_T(d, x)), _kernels.clenshaw_kernel, (0.0,) * d + (1.0,)
        yield (lambda x, d=d: eval_U(d, x)), _kernels.clenshaw_kernel, [float(c) for c in u_to_t_coeffs(d)]
    for d in (0, 1, 64):
        yield (lambda x, d=d: taylor_eval(d, x)), _kernels.taylor_kernel, d


@pytest.mark.parametrize("name", BLOCKED_INPUTS)
def test_blocked_evaluation_gives_the_bits_of_one_kernel_call(name):
    xs = BLOCKED_INPUTS[name]
    whole = np.asarray(xs, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, kernel, arg in _blocked_evaluators():
            _assert_same_bits(kernel(arg, whole), evaluate(xs))


def test_a_float_point_gives_the_bits_of_its_blocked_array_entry():
    xs = BLOCKED_INPUTS[f"size {3 * B + 17}"]
    # the edge values and the points either side of each block boundary
    at = sorted({*np.flatnonzero(np.isin(xs, EDGE_VALUES) | np.isnan(xs)).tolist(),
                 *(i + j for i in range(B, xs.size, B) for j in (-1, 0))})
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in _blocked_evaluators():
            arr = evaluate(xs)
            floats = [evaluate(x) for x in xs[at].tolist()]
            assert all(type(v) is float for v in floats)
            _assert_same_bits(floats, arr[at])


# --- in-place evaluation on aligned work buffers ---------------------------
def _at_offset(xs, offset):
    """A copy of xs whose data start ``offset`` bytes past a 64-byte boundary."""
    raw = np.empty(xs.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    copy = raw[start:start + xs.nbytes].view(np.float64)
    copy[:] = xs
    assert copy.ctypes.data % 64 == offset
    return copy


@pytest.mark.parametrize("size", [B + 1, 3 * B + 17])
def test_a_misaligned_input_gives_the_bits_of_an_aligned_copy(size):
    xs = _points(size)
    aligned, shifted = _at_offset(xs, 0), _at_offset(xs, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in _blocked_evaluators():
            _assert_same_bits(evaluate(aligned).tolist(), evaluate(shifted))


def test_a_result_never_shares_memory_with_the_next():
    for size in (500, 2 * B + 1):
        first = _points(size)
        second = first[::-1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for evaluate, _, _ in _blocked_evaluators():
                a = evaluate(first)
                kept = a.tolist()
                b = evaluate(second)
                _assert_same_bits(kept, a)
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("size", [1, B - 1, B])
def test_an_array_of_one_block_or_less_runs_in_place(size, monkeypatch):
    xs = _points(size)
    seen = []

    def recorder(kernel):
        def record(arg, block, work=None):
            seen.append((block.size, work))
            return kernel(arg, block, work)
        return record

    for name in ("clenshaw_kernel", "taylor_kernel"):
        monkeypatch.setattr(_kernels, name, recorder(getattr(_kernels, name)))
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in _blocked_evaluators():
            seen.clear()
            evaluate(xs)
            # one call, on the whole array, with four aligned buffers of its size
            [(points, work)] = seen
            assert points == size and work is not None and len(work) == 4
            for w in work:
                assert w.dtype == np.float64 and w.size == size and w.ctypes.data % 64 == 0


def test_two_threads_get_the_bits_of_sequential_calls():
    # each thread evaluates a two-block array and a one-block array
    inputs = [[_points(2 * B + 1), _points(500)], [-_points(2 * B + 1) - 1.0, -_points(500) - 1.0]]
    evaluators = [evaluate for evaluate, _, _ in _blocked_evaluators()]
    with np.errstate(over="ignore", invalid="ignore"):
        want = [[evaluate(xs).tolist() for xs in mine for evaluate in evaluators] for mine in inputs]
    got = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        with np.errstate(over="ignore", invalid="ignore"):
            got[i] = [evaluate(xs) for xs in inputs[i] for evaluate in evaluators]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert got[i] is not None and len(got[i]) == len(want[i])
        for floats, arr in zip(want[i], got[i]):
            _assert_same_bits(floats, arr)
