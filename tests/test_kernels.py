import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from chebbound import ChebSeries, _cpus, _kernels, clenshaw_eval, eval_T, eval_U, exp_cheb_coefficients, partial_sum, taylor_eval
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
            # the bracket kernel's ends: the sums of degrees n and n+1
            lower, upper = zip(*(_kernels.taylor_bracket(n, x) for x in POINTS))
            _assert_same_bits(lower, _kernels.taylor_kernel(n, xs))
            _assert_same_bits(upper, _kernels.taylor_kernel(n + 1, xs))


def _u_expansion(n):
    """U_n's T-basis coefficients, set one at a time from U_n = 2 (T_n + T_{n-2} + ...) - [n even]."""
    c = [0.0] * (n + 1 if n >= 0 else 1)
    for j in range(n, -1, -2):
        c[j] = 2.0
    if n >= 0 and n % 2 == 0:
        c[0] = 1.0
    return c


def test_eval_U_gives_the_bits_of_its_expansion():
    xs = np.array(POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(-1, 201):
            coeffs = _u_expansion(n)
            ints, floats = u_to_t_coeffs(n), u_to_t_coeffs(n, 1.0)
            assert ints == coeffs and {type(c) for c in ints} == {int}
            assert floats == coeffs and {type(c) for c in floats} == {float}
            want = [_kernels.clenshaw_kernel(coeffs, x) for x in POINTS]
            got = [eval_U(n, x) for x in POINTS]
            assert all(type(v) is float for v in got)
            _assert_same_bits(want, np.array(got))
            _assert_same_bits(want, eval_U(n, xs))


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


# --- in-place evaluation ----------------------------------------------------
# Every array is evaluated in place, in halves and pieces; each evaluator
# must still give the bits of one operator-form kernel call on the whole
# array.  S is a size scale: an array of S points has four Clenshaw pieces
# in each half.
S = 262144
P = _kernels._PIECE
EDGE_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, -1.0, 5e-324]


def _points(size):
    """Seeded points on [-30, 3], with the edge values spread over both halves."""
    xs = np.random.default_rng(size).uniform(-30.0, 3.0, size)
    at = np.linspace(0, size - 1, min(size, len(EDGE_VALUES))).astype(int)
    xs[at] = EDGE_VALUES[:at.size]
    return xs


BLOCKED_INPUTS = {
    **{f"size {n}": _points(n) for n in (0, 1, S - 1, S, S + 1, 3 * S + 17)},
    "shape (2, S+3)": _points(2 * (S + 3)).reshape(2, S + 3),
    "shape (S+5, 1)": _points(S + 5).reshape(S + 5, 1),
    "strided": _points(3 * S + 17)[::3],
    "Fortran-ordered": np.asfortranarray(_points(3 * (S + 1)).reshape(S + 1, 3)),
    "int": np.arange(2 * S + 3) % 41 - 35,
    "float32": _points(2 * S + 1).astype(np.float32),
}


def _evaluators():
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
        for evaluate, kernel, arg in _evaluators():
            _assert_same_bits(kernel(arg, whole), evaluate(xs))


def test_a_float_point_gives_the_bits_of_its_blocked_array_entry():
    xs = BLOCKED_INPUTS[f"size {3 * S + 17}"]
    # the edge values and the points either side of each boundary between
    # the halves and between their pieces, where two CPUs run them and where
    # one runs the whole array a piece at a time
    h = xs.size // 16 * 8
    cuts = {h, *range(P, xs.size, P), *range(h + P, xs.size, P)}
    at = sorted({*np.flatnonzero(np.isin(xs, EDGE_VALUES) | np.isnan(xs)).tolist(),
                 *(i + j for i in cuts for j in (-1, 0))})
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in _evaluators():
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


@pytest.mark.parametrize("size", [S + 1, 3 * S + 17])
def test_a_misaligned_input_gives_the_bits_of_an_aligned_copy(size):
    xs = _points(size)
    aligned, shifted = _at_offset(xs, 0), _at_offset(xs, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in _evaluators():
            _assert_same_bits(evaluate(aligned).tolist(), evaluate(shifted))


def test_a_result_never_shares_memory_with_the_next():
    for size in (500, 2 * S + 1):
        first = _points(size)
        second = first[::-1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for evaluate, _, _ in _evaluators():
                a = evaluate(first)
                kept = a.tolist()
                b = evaluate(second)
                _assert_same_bits(kept, a)
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("size", [1, _kernels._PLAIN - 1, _kernels._PLAIN, 2 * P - 1, S - 1, S, 3 * S + 17])
def test_an_array_runs_in_place_in_one_kernel_call(size, monkeypatch):
    xs = _points(size)
    seen = []

    def recorder(kernel):
        def record(arg, points, work=None):
            seen.append((points.size, work))
            return kernel(arg, points, work)
        return record

    for name in ("clenshaw_kernel", "taylor_kernel"):
        monkeypatch.setattr(_kernels, name, recorder(getattr(_kernels, name)))
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in _evaluators():
            seen.clear()
            result = evaluate(xs)
            # one call, on the whole array, with four buffers: the first the
            # result itself, the others of a clenshaw_kernel piece of each
            # half, or of the whole array where it runs at once; on 64-byte
            # boundaries from _kernels._PLAIN points on
            [(points, work)] = seen
            assert points == size and work is not None and len(work) == 4
            assert np.shares_memory(result, work[0])
            aligned = size >= _kernels._PLAIN
            rows = _kernels._row_points(size) if aligned else size
            assert rows >= min(size, 2 * P) and rows <= 2 * P
            for w, n in zip(work, [size] + [rows] * 3):
                assert w.dtype == np.float64 and w.size == n
                assert w.ctypes.data % 64 == 0 or not aligned


def test_two_threads_get_the_bits_of_sequential_calls():
    # each thread evaluates an array in two halves and one run at once
    inputs = [[_points(2 * S + 1), _points(500)], [-_points(2 * S + 1) - 1.0, -_points(500) - 1.0]]
    evaluators = [evaluate for evaluate, _, _ in _evaluators()]
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


# --- the two halves of a large array ----------------------------------------
# An array of at least 2 * _HALF_MIN points runs in two halves: the first in
# a thread started for the call where the process may use two CPUs, else
# both in the calling thread, one after the other.
H = _kernels._HALF_MIN


@pytest.fixture(params=("helper", "in turn"))
def halves(request, monkeypatch):
    """Where the halves of a large array run, whatever the host's CPUs."""
    monkeypatch.setattr(_cpus, "_decision", request.param == "helper")
    return request.param


# the halves split at a multiple of 8 points, so the second may hold up to
# 15 more: its pieces must fit the scratch rows too
@pytest.mark.parametrize("size", [2 * H - 1, 2 * H, 2 * H + 1, 2 * H + 7, 2 * H + 9, 2 * H + 15,
                                  4 * P + 7, 2 * S + 1])
def test_split_blocks_give_the_bits_of_one_kernel_call(halves, size, monkeypatch):
    xs = _points(size)
    threads = _record_row_threads(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, kernel, arg in _evaluators():
            _assert_same_bits(kernel(arg, xs), evaluate(xs))
    # an array of 2H points or more starts a thread where two CPUs are usable
    here = threading.current_thread().name
    split = halves == "helper" and size >= 2 * H
    assert threads == ({here, "chebbound-kernels"} if split else {here})


def test_overflow_under_the_cli_errstate_warns_nothing(halves):
    # far from -1 every evaluator overflows, in both halves; the started
    # thread runs in the caller's numpy error state, as cli.main sets it
    xs = -np.geomspace(1e300, 1e10, 2 * S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            got = [clenshaw_eval(partial_sum(64), xs), taylor_eval(63, xs), eval_T(64, xs), eval_U(63, xs)]
    assert all(not np.isfinite(g).all() for g in got)


def test_an_error_in_the_first_half_reaches_the_caller(halves):
    # only the first half overflows: there, in the started thread
    xs = np.repeat([-1e300, -2.0], S)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        taylor_eval(64, xs)
    # the next call splits again
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_bits(_kernels.taylor_kernel(64, xs), taylor_eval(64, xs))


def test_an_interrupted_join_leaves_later_arrays_split(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    xs, n = _points(2 * S), 33
    # the started thread's first half waits until the caller's join is
    # interrupted
    interrupted, taylor_rows = threading.Event(), _kernels._taylor_rows

    def rows(arg, points, work):
        if threading.current_thread() is not threading.main_thread():
            interrupted.wait(60)
        taylor_rows(arg, points, work)

    def interrupt(signum, frame):
        interrupted.set()
        raise KeyboardInterrupt

    work = tuple(np.empty(S) for _ in range(4))
    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt), np.errstate(over="ignore", invalid="ignore"):
            _kernels._in_place(rows, 4 * P, n, xs[:S], work)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert interrupted.is_set()
    # the next large evaluation runs its first half in a thread of its own
    threads = _record_row_threads(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        got = taylor_eval(n, xs)
        _assert_same_bits(_kernels.taylor_kernel(n, xs), got)
    assert len(threads) == 2 and threading.current_thread().name in threads


def test_an_error_callback_hears_the_first_half(halves):
    # numpy's "call" mode reaches the started thread's half too
    heard = []
    xs = np.repeat([-1e300, -2.0], S // 2)
    with np.errstate(over="call", invalid="ignore", call=lambda kind, flag: heard.append(kind)):
        taylor_eval(64, xs)
    assert "overflow" in heard


# a numpy error callback that the started thread calls evaluates a large
# array, which starts a thread of its own.  In a child process, so that a
# hang cannot hang the tests after this.
REENTRY = """
import threading
import numpy as np
from chebbound import _cpus, _kernels, taylor_eval
_cpus._decision = True
inner = np.linspace(-3.0, 3.0, 300_000)
heard = []

def call(kind, flag):
    if not heard:
        heard.append((threading.current_thread().name, taylor_eval(8, inner)))

# only the first half overflows, so only the started thread calls back
with np.errstate(over="call", invalid="ignore", call=call):
    taylor_eval(64, np.repeat([-1e300, -2.0], 131072))
[(name, got)] = heard
assert name.startswith("chebbound-kernels"), name
assert got.view(np.uint64).tolist() == _kernels.taylor_kernel(8, inner).view(np.uint64).tolist()
print("ok")
"""


def test_an_error_callback_in_the_helper_evaluates_a_large_array():
    proc = subprocess.run([sys.executable, "-c", REENTRY], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


# an array whose thread cannot start runs in the calling thread alone, and
# each later array tries again.  In a child process, so that a hang cannot
# hang the tests after this.
START_FAILS = """
import threading
import numpy as np
from chebbound import _cpus, _kernels, taylor_eval
_cpus._decision = True
xs = np.linspace(-30.0, 3.0, 262144)
want = _kernels.taylor_kernel(33, xs).view(np.uint64).tolist()
start = threading.Thread.start

def fail(self):
    raise RuntimeError("can't start new thread")

threading.Thread.start = fail
got = [taylor_eval(33, xs), taylor_eval(33, xs)]
threading.Thread.start = start
# with threads to be had again, the next array splits
names, rows = set(), _kernels._taylor_rows

def record(*args):
    names.add(threading.current_thread().name)
    rows(*args)

_kernels._taylor_rows = record
got.append(taylor_eval(33, xs))
assert names == {threading.current_thread().name, "chebbound-kernels"}, names
assert all(g.view(np.uint64).tolist() == want for g in got)
print("ok")
"""


def test_a_thread_that_fails_to_start_leaves_the_array_to_the_caller():
    proc = subprocess.run([sys.executable, "-c", START_FAILS], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_no_kernel_thread_outlives_its_call(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    xs = _points(2 * S + 1)
    threads = _record_row_threads(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate in (lambda: clenshaw_eval(partial_sum(8), xs), lambda: taylor_eval(8, xs)):
            evaluate()
            assert not [t for t in threading.enumerate() if t.name.startswith("chebbound-kernels")]
    # taylor_eval did split its array
    assert "chebbound-kernels" in threads


def test_an_array_makes_one_hand_off(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    handed, first_half = [], _kernels._first_half

    def record(err, call, errors, rows, *args):
        # the step loop of each started thread
        handed.append(rows)
        first_half(err, call, errors, rows, *args)

    monkeypatch.setattr(_kernels, "_first_half", record)
    xs = _points(2 ** 21)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, rows in ((lambda x: clenshaw_eval(partial_sum(36), x), "_clenshaw_rows"),
                               (lambda x: eval_T(36, x), "_clenshaw_rows"),
                               (lambda x: eval_U(36, x), "_clenshaw_rows"),
                               (lambda x: taylor_eval(36, x), "_taylor_rows")):
            handed.clear()
            evaluate(xs)
            assert handed == [getattr(_kernels, rows)]


def test_the_buffers_go_with_their_call(halves, monkeypatch):
    # the started thread ends, and lets go of an array's buffers, before its
    # call returns, so no buffer outlives its call of evaluate to lie beside
    # the next call's
    buffers, rows = [], _kernels._taylor_rows

    def record(n, xs, work):
        buffers.append(weakref.ref(work[0].base))
        rows(n, xs, work)

    monkeypatch.setattr(_kernels, "_taylor_rows", record)
    with np.errstate(over="ignore", invalid="ignore"):
        taylor_eval(33, _points(2 * S))
    assert buffers and all(ref() is None for ref in buffers)


def test_every_kernel_call_stays_in_the_calling_thread(monkeypatch):
    # the benchmark's tracer wraps the module's kernels with one span stack;
    # the started thread runs only the private step loops
    monkeypatch.setattr(_cpus, "_decision", True)
    seen = {}

    def recorder(name, function):
        def record(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.current_thread().name)
            return function(*args, **kwargs)
        return record

    for name in ("evaluate", "clenshaw_kernel", "taylor_kernel", "taylor_bracket",
                 "_clenshaw_rows", "_taylor_rows"):
        monkeypatch.setattr(_kernels, name, recorder(name, getattr(_kernels, name)))
    xs = _points(2 * S + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        clenshaw_eval(partial_sum(8), xs)
        taylor_eval(8, xs)
    here = threading.current_thread().name
    [helper] = seen["_taylor_rows"] - {here}
    assert helper.startswith("chebbound-kernels")
    assert seen == {"evaluate": {here}, "clenshaw_kernel": {here}, "taylor_kernel": {here},
                    "_clenshaw_rows": {here, helper}, "_taylor_rows": {here, helper}}


def _record_row_threads(monkeypatch):
    """The names of the threads that run ``_taylor_rows`` from now on."""
    threads, rows = set(), _kernels._taylor_rows

    def record(*args):
        threads.add(threading.current_thread().name)
        rows(*args)

    monkeypatch.setattr(_kernels, "_taylor_rows", record)
    return threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    xs, s = _points(2 * S), partial_sum(40)
    with np.errstate(over="ignore", invalid="ignore"):
        want = clenshaw_eval(s, xs)
    with warnings.catch_warnings():
        # numpy's BLAS threads make this process multi-threaded
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if not pid:
        code = 1
        try:
            # the parent's CPU decision is gone
            fresh = _cpus._decision is None
            with np.errstate(over="ignore", invalid="ignore"):
                got = clenshaw_eval(s, xs)
            code = 0 if fresh and np.array_equal(got.view(np.uint64), want.view(np.uint64)) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.05)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


# --- skipped zero adds ------------------------------------------------------
# The in-place Clenshaw loop skips the add of a zero coefficient at every step
# but the last, unless coeffs[0] is -0.0; the operator form adds every one.
# Skipping can only flip a zero's sign, which the last add undoes.
def _sparse_series():
    # every vector of up to four entries from +-0 and +-1: [-0.0, 0.0] among them
    yield from (list(v) for n in range(1, 5) for v in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=n))
    # longer runs of zeros, with tiny entries whose products underflow to zeros
    rng = np.random.default_rng(28)
    values = (0.0, -0.0, 0.0, -0.0, 1.0, -0.5, 1e-300, -1e-300)
    for n in range(5, 13):
        for _ in range(6):
            v = rng.choice(values, n).tolist()
            yield v
            yield [-0.0] + v[1:]


ZERO_SERIES = list(_sparse_series())
ZERO_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
ZERO_POINTS += (np.random.default_rng(29).choice((-1.0, 1.0), 53)
                * 10.0 ** np.random.default_rng(30).uniform(-320.0, 10.0, 53)).tolist()


@pytest.mark.parametrize("size", [1, 2 * H, S + 1])
def test_skipped_zero_adds_keep_every_bit(halves, size):
    assert "[-0.0, 0.0]" in map(repr, ZERO_SERIES)
    # each point lies in both halves of a split array and in several pieces
    at = np.arange(size) % len(ZERO_POINTS)
    xs = np.array(ZERO_POINTS)[at]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for coeffs in ZERO_SERIES:
            series = ChebSeries(coeffs)
            want = np.array([_kernels.clenshaw_kernel(coeffs, x) for x in ZERO_POINTS])
            if size == 1:
                got = np.array([clenshaw_eval(series, np.array([x]))[0] for x in ZERO_POINTS])
            else:
                want, got = want[at], clenshaw_eval(series, xs)
            # as integers, so -0.0 and +0.0 differ
            assert np.array_equal(np.isnan(want), np.isnan(got)), coeffs
            assert np.array_equal(want[~np.isnan(want)].view(np.uint64), got[~np.isnan(got)].view(np.uint64)), coeffs
