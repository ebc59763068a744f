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

import numpy as np
import pytest

from chebbound import ChebSeries, _cpus, _kernels, clenshaw_eval, eval_T, eval_U, exp_cheb_coefficients, partial_sum, taylor_eval
from chebbound.chebpoly import u_to_t_coeffs


def _assert_same_bits(want, got):
    """``got`` holds the float64 bits of ``want``, an array or a list of floats; any NaN for a NaN."""
    want = np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(nan, np.isnan(got))
    # as integers, so -0.0 and +0.0 differ
    assert (nan | (want.view(np.uint64) == got.view(np.uint64))).all()


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

    _assert_same_bits([clenshaw(x) for x in xs.tolist()], _kernels.clenshaw_kernel(coeffs, xs))
    for n in (0, 1, 7, 32):
        _assert_same_bits([taylor(n, x) for x in xs.tolist()], _kernels.taylor_kernel(n, xs))


# the coefficient vectors the package evaluates: exp truncations, the unit
# vectors behind eval_T and the U-to-T expansions behind eval_U
EXP_VECTORS = [exp_cheb_coefficients(n).tolist() for n in range(65)]
UNIT_VECTORS = [[0.0] * n + [1.0] for n in range(40)]
U_VECTORS = [[float(c) for c in u_to_t_coeffs(n)] for n in range(-1, 40)]
LOG_POINTS = (-np.geomspace(1e4, 1e-3, 120)).tolist()
LINEAR_POINTS = np.linspace(-1.0, 1.0, 61).tolist()
EDGE_POINTS = [-1.0 - 2.0**-52, -1.0001, 0.0, -0.0, 5e-324, -5e-324]
POINTS = LOG_POINTS + LINEAR_POINTS + EDGE_POINTS + [math.inf, -math.inf, math.nan]


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
            want = _kernels.clenshaw_kernel(coeffs, xs)
            got = [eval_U(n, x) for x in POINTS]
            assert all(type(v) is float for v in got)
            _assert_same_bits(want, np.array(got))
            _assert_same_bits(want, eval_U(n, xs))


def _exact_terms(coeffs, x):
    """a_k T_k(x) for each k, exactly, by the three-term T recurrence: integers over 2**e, and e."""
    # x = p / 2**q, so T_k(x) = t_k / 2**(q k) with t_{k+1} = 2 p t_k - 4**q t_{k-1}
    p, d = x.as_integer_ratio()
    q = d.bit_length() - 1
    ratios = [(a, s.bit_length() - 1) for a, s in map(float.as_integer_ratio, coeffs)]
    e = q * (len(coeffs) - 1) + max(s for _, s in ratios)
    terms, t_prev, t = [], 1, 1
    for k, (a, s) in enumerate(ratios):
        terms.append(a * t << e - s - q * k)
        t_prev, t = t, (2 * p * t - (t_prev << 2 * q) if k else p)
    return terms, e


def test_clenshaw_tracks_the_exact_sum_of_the_exp_truncations():
    # positive, fast-decaying coefficients: on [-1e4, 1] the rounding error
    # stays within (n+1) eps sum |a_k T_k(x)|.  Truncation n is the first
    # n+1 coefficients of the longest, so its sums are prefix sums.
    for x in LOG_POINTS + LINEAR_POINTS + EDGE_POINTS:
        terms, e = _exact_terms(EXP_VECTORS[-1], x)
        exact = magnitude = 0
        for n, term in enumerate(terms):
            exact += term
            magnitude += abs(term)
            assert EXP_VECTORS[n] == EXP_VECTORS[-1][:n + 1]
            got, g = _kernels.clenshaw_kernel(EXP_VECTORS[n], x).as_integer_ratio()
            # |got / g - exact / 2**e| <= (n+1) 2**-52 magnitude / 2**e, times 2**(e+52) g
            assert abs((got << e) - exact * g) << 52 <= (n + 1) * magnitude * g, (n, x)


# --- in-place evaluation ----------------------------------------------------
# Every array is evaluated in place, in halves and pieces; each evaluator
# must still give the bits of one operator-form kernel call on the whole
# array.  S is a size scale: an array of S points has four Clenshaw pieces
# in each half.  An array of at least 2 * _HALF_MIN points runs in two
# halves: the first in a thread started for the call where the process may
# use two CPUs, else both in the calling thread, one after the other.
S = 262144
P = _kernels._PIECE
H = _kernels._HALF_MIN
EDGE_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, -1.0, 5e-324]

# Every large point set is a view or a copy of XS: seeded points on [-30, 3]
# with every 1009th an edge value in turn, so that each prefix of 2H points
# or more holds every edge value in both halves.
XS = np.random.default_rng(31).uniform(-30.0, 3.0, 3 * S + 17)
XS[::1009] = np.resize(EDGE_VALUES, XS[::1009].size)
XS.flags.writeable = False
# the point sets with a cached reference: XS, its first 4099 points rounded
# to float32, and the integers -35..5.  The last two are tiled, at periods
# that divide no half or piece.
POINT_SETS = {"float64": XS, "float32": XS[:4099].astype(np.float32), "int": np.arange(-35, 6)}


def _evaluators():
    """(evaluator, kernel, its argument) for each evaluator and degree."""
    for d in (0, 1, 2, 33, 64):
        s = partial_sum(d)
        yield (lambda x, s=s: clenshaw_eval(s, x)), _kernels.clenshaw_kernel, s.values
        yield (lambda x, d=d: eval_T(d, x)), _kernels.clenshaw_kernel, (0.0,) * d + (1.0,)
        yield (lambda x, d=d: eval_U(d, x)), _kernels.clenshaw_kernel, [float(c) for c in u_to_t_coeffs(d)]
    for d in (0, 1, 64):
        yield (lambda x, d=d: taylor_eval(d, x)), _kernels.taylor_kernel, d


EVALUATORS = list(_evaluators())


@pytest.fixture(scope="module")
def reference():
    """For each point set, each evaluator's operator-form kernel call on it, read-only.

    IEEE ``+ - * /`` round each element on its own, so the same slice,
    reshape or tiling of a reference is the reference of those points.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        wants = {key: [kernel(arg, np.asarray(xs, dtype=np.float64)) for _, kernel, arg in EVALUATORS]
                 for key, xs in POINT_SETS.items()}
    for want in itertools.chain(*wants.values()):
        want.flags.writeable = False
    return wants


@pytest.fixture(params=("two threads", "in turn"))
def halves(request, monkeypatch):
    """Where the halves of a large array run, whatever the host's CPUs."""
    monkeypatch.setattr(_cpus, "_decision", request.param == "two threads")
    return request.param


def _record(monkeypatch, *names, note=lambda *args: threading.current_thread().name):
    """``note(*args)`` for each later call of each ``_kernels`` function in ``names``; by default the thread's name."""
    notes = []
    for name in names:
        def record(*args, function=getattr(_kernels, name)):
            notes.append(note(*args))
            return function(*args)

        monkeypatch.setattr(_kernels, name, record)
    return notes


# each case: a point set and a layout of it; the same layout of the set's
# reference is the case's reference
BLOCKED_INPUTS = {
    **{f"size {n}": ("float64", lambda a, n=n: a[:n]) for n in (0, 1, S - 1, S, S + 1, 3 * S + 17)},
    "shape (2, S+3)": ("float64", lambda a: a[:2 * (S + 3)].reshape(2, S + 3)),
    "shape (S+5, 1)": ("float64", lambda a: a[:S + 5].reshape(S + 5, 1)),
    "strided": ("float64", lambda a: a[::3]),
    "Fortran-ordered": ("float64", lambda a: np.asfortranarray(a[:3 * (S + 1)].reshape(S + 1, 3))),
    "int": ("int", lambda a: np.resize(a, 2 * S + 3)),
    "float32": ("float32", lambda a: np.resize(a, 2 * S + 1)),
}


@pytest.mark.parametrize("name", BLOCKED_INPUTS)
def test_blocked_evaluation_gives_the_bits_of_one_kernel_call(name, reference):
    key, layout = BLOCKED_INPUTS[name]
    xs = layout(POINT_SETS[key])
    with np.errstate(over="ignore", invalid="ignore"):
        for (evaluate, _, _), want in zip(EVALUATORS, reference[key]):
            _assert_same_bits(layout(want), evaluate(xs))


def test_a_float_point_gives_the_bits_of_its_blocked_array_entry():
    # the edge values and the points either side of each boundary between
    # the halves and between their pieces, where two CPUs run them and where
    # one runs the whole array a piece at a time
    h = XS.size // 16 * 8
    cuts = {h, *range(P, XS.size, P), *range(h + P, XS.size, P)}
    at = sorted({*np.flatnonzero(np.isin(XS, EDGE_VALUES) | np.isnan(XS)).tolist(),
                 *(i + j for i in cuts for j in (-1, 0))})
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in EVALUATORS:
            floats = [evaluate(x) for x in XS[at].tolist()]
            assert all(type(v) is float for v in floats)
            _assert_same_bits(floats, evaluate(XS)[at])


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
    aligned, shifted = _at_offset(XS[:size], 0), _at_offset(XS[:size], 8)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in EVALUATORS:
            _assert_same_bits(evaluate(aligned), evaluate(shifted))


# the first half ends on a multiple of 8 points and each piece holds a
# multiple of 8, so every slice of the result and every scratch row that a
# step loop gets starts on a 64-byte boundary
@pytest.mark.parametrize("size", [2 * H + 15, 3 * S + 17])
def test_every_half_and_piece_starts_on_a_64_byte_boundary(halves, size, monkeypatch):
    offsets = _record(monkeypatch, "_clenshaw_rows", "_taylor_rows",
                      note=lambda arg, xs, work: [w.ctypes.data % 64 for w in work])
    with np.errstate(over="ignore", invalid="ignore"):
        clenshaw_eval(partial_sum(8), XS[:size])
        taylor_eval(8, XS[:size])
    assert len(offsets) >= 4 and all(o == [0, 0, 0, 0] for o in offsets), offsets


def test_a_result_never_shares_memory_with_the_next():
    for size in (500, 2 * S + 1):
        first = XS[:size]
        second = first[::-1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for evaluate, _, _ in EVALUATORS:
                a = evaluate(first)
                kept = a.copy()
                b = evaluate(second)
                _assert_same_bits(kept, a)
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("size", [1, _kernels._PLAIN - 1, _kernels._PLAIN, 2 * P - 1, S - 1, S, 3 * S + 17])
def test_an_array_runs_in_place_in_one_kernel_call(size, monkeypatch):
    seen = _record(monkeypatch, "clenshaw_kernel", "taylor_kernel",
                   note=lambda arg, points, work=None: (points.size, work))
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, _, _ in EVALUATORS:
            seen.clear()
            result = evaluate(XS[:size])
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


def test_two_threads_get_the_bits_of_sequential_calls(reference):
    # each thread evaluates an array in two halves and one run at once, and
    # checks each result against the references computed in one thread
    spans = [[slice(2 * S + 1), slice(500)], [slice(-2 * S - 1, None), slice(-500, None)]]
    checked = [0, 0]
    wants = reference["float64"]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        with np.errstate(over="ignore", invalid="ignore"):
            for span in spans[i]:
                for (evaluate, _, _), want in zip(EVALUATORS, wants):
                    _assert_same_bits(want[span], evaluate(XS[span]))
                    checked[i] += 1

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
    assert checked == [2 * len(EVALUATORS)] * 2


# --- the two halves of a large array ----------------------------------------
# the halves split at a multiple of 8 points, so the second may hold up to
# 15 more: its pieces must fit the scratch rows too
@pytest.mark.parametrize("size", [2 * H - 1, 2 * H, 2 * H + 1, 2 * H + 7, 2 * H + 9, 2 * H + 15,
                                  4 * P + 7, 2 * S + 1])
def test_split_blocks_give_the_bits_of_one_kernel_call(halves, size, reference, monkeypatch):
    threads = _record(monkeypatch, "_taylor_rows")
    with np.errstate(over="ignore", invalid="ignore"):
        for (evaluate, _, _), want in zip(EVALUATORS, reference["float64"]):
            _assert_same_bits(want[:size], evaluate(XS[:size]))
    # an array of 2H points or more starts a thread where two CPUs are usable
    here = threading.current_thread().name
    split = halves == "two threads" and size >= 2 * H
    assert set(threads) == ({here, "chebbound-kernels"} if split else {here})


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
        _assert_same_bits(np.repeat(_kernels.taylor_kernel(64, xs[::S]), S), taylor_eval(64, xs))


def test_an_interrupted_join_leaves_later_arrays_split(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    xs, n = XS[:2 * S], 33
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
    threads = _record(monkeypatch, "_taylor_rows")
    with np.errstate(over="ignore", invalid="ignore"):
        got = taylor_eval(n, xs)
        _assert_same_bits(_kernels.taylor_kernel(n, xs), got)
    assert set(threads) == {threading.current_thread().name, "chebbound-kernels"}


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
assert np.array_equal(got.view(np.uint64), _kernels.taylor_kernel(8, inner).view(np.uint64))
print("ok")
"""


def test_an_error_callback_in_the_started_thread_evaluates_a_large_array():
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
want = _kernels.taylor_kernel(33, xs).view(np.uint64)
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
assert all(np.array_equal(g.view(np.uint64), want) for g in got)
print("ok")
"""


def test_a_thread_that_fails_to_start_leaves_the_array_to_the_caller():
    proc = subprocess.run([sys.executable, "-c", START_FAILS], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_no_kernel_thread_outlives_its_call(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    xs = XS[:2 * S + 1]
    threads = _record(monkeypatch, "_taylor_rows")
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate in (lambda: clenshaw_eval(partial_sum(8), xs), lambda: taylor_eval(8, xs)):
            evaluate()
            assert not [t for t in threading.enumerate() if t.name.startswith("chebbound-kernels")]
    # taylor_eval did split its array
    assert "chebbound-kernels" in threads


def test_an_array_makes_one_hand_off(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    # the step loop of each started thread
    handed = _record(monkeypatch, "_first_half", note=lambda err, call, errors, rows, *args: rows)
    xs = np.resize(XS, 2 ** 21)
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
    buffers = _record(monkeypatch, "_taylor_rows", note=lambda n, xs, work: weakref.ref(work[0].base))
    with np.errstate(over="ignore", invalid="ignore"):
        taylor_eval(33, XS[:2 * S])
    assert buffers and all(ref() is None for ref in buffers)


def test_every_kernel_call_stays_in_the_calling_thread(monkeypatch):
    # the benchmark's tracer wraps the module's kernels with one span stack;
    # the started thread runs only the private step loops
    monkeypatch.setattr(_cpus, "_decision", True)
    seen = {name: _record(monkeypatch, name) for name in ("evaluate", "clenshaw_kernel", "taylor_kernel",
                                                          "taylor_bracket", "_clenshaw_rows", "_taylor_rows")}
    xs = XS[:2 * S + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        clenshaw_eval(partial_sum(8), xs)
        taylor_eval(8, xs)
    seen = {name: set(threads) for name, threads in seen.items() if threads}
    here = threading.current_thread().name
    [started] = seen["_taylor_rows"] - {here}
    assert started.startswith("chebbound-kernels")
    assert seen == {"evaluate": {here}, "clenshaw_kernel": {here}, "taylor_kernel": {here},
                    "_clenshaw_rows": {here, started}, "_taylor_rows": {here, started}}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_decides_its_cpus_afresh(monkeypatch):
    monkeypatch.setattr(_cpus, "_decision", True)
    xs, s = XS[:2 * S], partial_sum(40)
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


# 64 points run at once; at 2H and 4P+7 points each point lies in both
# halves of a split array, and at 4P+7 in two full pieces of each
@pytest.mark.parametrize("size", [len(ZERO_POINTS), 2 * H, 4 * P + 7])
def test_skipped_zero_adds_keep_every_bit(halves, size):
    assert "[-0.0, 0.0]" in map(repr, ZERO_SERIES)
    xs = np.resize(ZERO_POINTS, size)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for coeffs in ZERO_SERIES:
            want = np.resize(_kernels.clenshaw_kernel(coeffs, xs[:len(ZERO_POINTS)]), size)
            _assert_same_bits(want, clenshaw_eval(ChebSeries(coeffs), xs))
