"""Clenshaw and Horner kernels, the Maclaurin bracket kernel, and ``evaluate``.

Each kernel runs a Python loop over the recurrence index in one of two
forms.  Without ``work`` it uses only arithmetic operators, so one function
serves both kinds of point: ``xs`` is either a Python float, giving a float,
or a float64 ndarray, giving an ndarray of the same shape with one
whole-array operation per step.  IEEE arithmetic rounds each element on its
own, so a float and the same value inside an array give the same bits.
The operator form is tested first, so a float pays one ``is None`` check,
and it runs every operation of the recurrence, with no branch per step.

With ``work``, a tuple of float64 buffers, a kernel runs in place, each
ufunc writing to a buffer given as its positional output, and returns the
first buffer.  This form leaves out the operations that cannot change a
bit, so the two forms no longer apply identical operations, but they give
identical bits:

- ``t - 0.0`` is ``t`` for every t, -0.0 and NaN included, so Clenshaw's
  first two steps take the operator form's scalar ``b1 = b2 = 0.0`` and
  skip its subtracts; ``1.0 * x`` is ``x``, so Taylor's first step divides
  the points themselves (degree 0 keeps ``x ** 0.0``).
- Clenshaw skips the add of a zero coefficient at every step but the last,
  which adds ``coeffs[0]``.  Adding -0.0 changes nothing, and adding +0.0
  changes only -0.0, into +0.0, so at each step the two forms hold the same
  value up to the sign of a zero: ``+ - *`` of a zero with a nonzero, an
  infinity or a NaN give the same result for either zero.  The last add
  ends that: a sum with ``coeffs[0]`` is -0.0 only where both terms are,
  so unless ``coeffs[0]`` is -0.0 both forms hold the same value, never
  -0.0, and ``t - b2`` of such a t does not depend on the sign of a zero
  b2.  Where ``coeffs[0]`` is -0.0 every add is kept: the series ``[-0.0,
  0.0]`` at x = -0.0 gives -0.0 with its add and +0.0 without.

``eval_T`` runs Clenshaw on a unit vector and ``eval_U`` on one that is
zero at every other index, so the skipped adds cut their passes by about
a third and a sixth.

``evaluate`` is the one route from a point argument to a kernel.  A scalar
(a Python or numpy int or float, or a 0-d array) runs the operator form in
Python floats and gives a Python float.  Every other array, whatever its
size, runs in place, in one kernel call, and gives a float64 ndarray of its
shape.  Over the whole array at once, each step would stream the points
and the recurrence's arrays through memory; a 2M-point array is 16 MB, far
above the per-core L2 cache.  So the kernel splits a large array into two
halves and each half into pieces.  Over a ``clenshaw_kernel`` piece of
``_PIECE`` = 32768 points the live arrays (the points and four buffers:
1.25 MiB) stay in L2 for all steps; 32768 was the fastest size of two scans
of 4096..131072 points on 2M points (CHANGES.md gives the figures).
``taylor_kernel``, bound by its divisions, runs pieces of 4 * ``_PIECE`` =
131072 points (two live arrays of 1 MiB); whole 1M-point halves ran about
15% slower.  Halves and pieces cannot change a bit: ``+ - * /`` round each
element on its own, whatever the slice or the SIMD path, and each applies
the same operations in the same order to each point.

For each such array the kernel starts one daemon thread, which runs the
first half while the calling thread runs the second, and joins it before
it returns or raises; numpy's ufuncs release the GIL inside their loops,
so the two run on two CPUs at once.  Starting and joining a thread took
38-85 us on a 2-vCPU KVM guest (medians of 2000, in 12 processes):
nothing beside the 30-55 ms of a 2M-point evaluation at degree 36.  At
65536 points and degree 20 the split ran Clenshaw in 0.96 ms and Taylor
in 1.13 ms, against 0.81 and 0.98 ms with a thread kept between calls and
1.20 and 1.66 ms alone (medians of 6 processes).  No thread outlives its
call, so a forked child and concurrent callers need nothing more.  A
thread that waits for the GIL on that guest woke too late to catch the
other thread's next ufunc of 32768 points (about 10 us), while ufuncs of
131072 points overlapped from the first call, one more reason for
Taylor's larger pieces.  The split sits inside the kernel call: the started thread runs
only the private step loops (``_clenshaw_rows``, ``_taylor_rows``), so
every call of a module-level kernel, and every span that perfbench's
tracer (one span stack for all threads) records for it, stays in the
calling thread, and the span's wall time covers both halves.  The started
thread runs its half under the caller's numpy error state, which numpy 1
keeps per thread and numpy 2 per context, and the caller raises its
exception; a numpy error callback there that evaluates a large array
starts a thread of its own.  The calling thread runs an array at once
where its halves would hold fewer than ``_HALF_MIN`` points (the CLI's
8192-row chunks, small grids).  It runs a larger one alone, ``_PIECE``
points at a time for both kernels, where the process may not use two CPUs
(``_cpus.two_cpus``) or no thread can be started.

``evaluate`` hands the kernel the result as the first work buffer, so the
kernel writes every point where it stays, with no copy.  From ``_PLAIN`` =
2048 points on, the result starts on a 64-byte boundary; the first half
ends on a multiple of 8 points and each piece holds a multiple of 8, so
every half and piece starts on one too.  A second aligned allocation holds
three rows, the scratch rows of ``clenshaw_kernel``: each holds one piece
of each half, sized for the larger half, or the whole array where it runs
at once (``_row_points``).  At 1.5 MiB at most it stays under the 4 MiB
from which numpy asks for huge pages, whose first touches would make it
resident 2 MiB at a time.  The operator form's temporaries land wherever
malloc puts them, so its timing followed the heap's history: the in-place
loop ran a 10-evaluation grid round in 717-728 ms on aligned buffers but
in 868-1041 ms on buffers 8, 16, 32 or 48 bytes past a boundary, and on
32768 points the operator loop took 235 minor page faults against 31 in
place.  An array of fewer points runs on four plain ``np.empty`` buffers,
whose addresses are not read: each read (``ctypes.data``) costs over 1 us,
and the 64 500-point scans of ``certify`` ran in 2.9 ms on plain buffers
against 3.2 ms on aligned ones.  Plain buffers do not pay off above that:
Clenshaw on 4096 points ran a quarter slower on them, and on 16384 points
or more each call took 80 to 200 minor page faults, most likely as glibc
trimmed the freed buffers from its heap between calls.  The buffers belong
to one call of ``evaluate`` and only the result is returned, so threads
may evaluate at the same time, and no result shares memory with another.

numpy is imported only in the in-place branch and in the array branch of
``evaluate``, which only arrays reach, so a float point runs without it.

``taylor_bracket`` gives both ends of the Maclaurin bracket at one float
point in one pass: the sums of degrees n and n+1.  It exists in the
operator form only, for Python floats; arrays take ``evaluate`` once per
end.  Each end keeps its own state and undergoes exactly the operations, in
the same order, that ``taylor_kernel`` applies to it alone, so each end has
the bits of its own sum, NaN and signed zero included.  The upper end takes
its first step alone.  The Chebyshev bracket still runs ``clenshaw_kernel``
once per end (ROADMAP item 16 says why); a rounding bound for the bracket
(ROADMAP item 1, the Clenshaw form of Higham's running bound) belongs in
the one-pass loops.
"""

from __future__ import annotations

import math

# points per piece of clenshaw_kernel: its live arrays stay in L2
_PIECE = 32768
# points per half below which an array runs whole in the calling thread
_HALF_MIN = 16384
# points below which evaluate's buffers are plain, not aligned (see above)
_PLAIN = 2048

# work buffers from ``evaluate``: the result, which clenshaw_kernel also
# holds 2x in, and clenshaw_kernel's b1, b2 and step result, a piece of each
_BUFFERS = 4
_ALIGN = 64


def clenshaw_kernel(coeffs, xs, work=None):
    """Backward Clenshaw recurrence for sum_j coeffs[j]*T_j at each x.

    ``coeffs`` is any sequence of floats, at least one long.  ``work``, if
    given, holds four float64 arrays, the first of ``xs``' size and the
    others of at least ``_row_points(xs.size)`` points; the result is then
    the first.
    """
    if work is None:
        # 2.0 * xs * b1 is (2.0 * xs) * b1, so hoisting 2x keeps every bit
        x2 = 2.0 * xs
        b1 = b2 = 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = x2 * b1 + c - b2, b1
        return xs * b1 + coeffs[0] - b2
    return _in_place(_clenshaw_rows, _PIECE, coeffs, xs, work)


def _clenshaw_rows(coeffs, xs, work):
    import numpy as np

    multiply, add, subtract = np.multiply, np.add, np.subtract
    # a zero coefficient's add is skipped at every step but the last, unless
    # that last add, of coeffs[0], is of -0.0 (see above)
    keep = coeffs[0] == 0.0 and math.copysign(1.0, coeffs[0]) < 0.0
    # 2x lies where the result goes, which overwrites it last
    x2 = work[0]
    multiply(2.0, xs, x2)
    # b1 and b2 start as the operator form's scalar 0.0, and t - 0.0 is t;
    # step j writes the one buffer that holds neither b1 nor b2
    rows = [w[:xs.size] for w in work[1:]]
    b1 = b2 = 0.0
    for j, c in enumerate(coeffs[:0:-1]):
        t = rows[j % 3]
        multiply(x2, b1, t)
        if c or keep:
            add(t, c, t)
        if j > 1:
            subtract(t, b2, t)
        b1, b2 = t, b1
    multiply(xs, b1, x2)
    add(x2, coeffs[0], x2)
    if len(coeffs) > 2:
        subtract(x2, b2, x2)


def taylor_kernel(n, xs, work=None):
    """Degree-n Maclaurin partial sum of exp at each x (Horner form).

    ``work``, if given, holds at least one float64 array of ``xs``' size;
    the result is then the first.
    """
    if work is None:
        # x ** 0.0 is 1.0 for every x, inf and nan included, in xs' own type
        v = xs ** 0.0
        for k in range(n, 0, -1):
            v = 1.0 + v * xs / k
        return v
    # whole 1M-point halves ran about 15% slower than these pieces
    return _in_place(_taylor_rows, 4 * _PIECE, n, xs, work)


def _taylor_rows(n, xs, work):
    import numpy as np

    multiply, divide, add = np.multiply, np.divide, np.add
    v = work[0]
    if not n:
        np.power(xs, 0.0, v)
        return
    # the first step's v * xs is 1.0 * xs, which is xs bit for bit
    divide(xs, n, v)
    add(1.0, v, v)
    for k in range(n - 1, 0, -1):
        multiply(v, xs, v)
        divide(v, k, v)
        add(1.0, v, v)


def _row_points(size):
    """Points per scratch row for an array of ``size`` points.

    A row holds a ``clenshaw_kernel`` piece of each half, or the whole array
    where it runs at once.
    """
    # the second half holds at most 15 points more than the first; rounded
    # to 8 points, each half's piece starts on a 64-byte boundary
    return 2 * min(size // 16 * 8 + 16, _PIECE)


def _pieces(rows, piece, arg, xs, work):
    """``rows`` on ``xs``, ``piece`` points at a time, each into its slice of ``work[0]``."""
    out = work[0]
    for i in range(0, xs.size, piece):
        rows(arg, xs[i:i + piece], (out[i:i + piece], *work[1:]))


def _first_half(err, call, errors, *args):
    """``_pieces(*args)`` under numpy's error state ``err`` and callback ``call``; its exception goes on ``errors``."""
    # numpy 1 keeps its error state per thread and numpy 2 per context, and
    # a new thread starts with the defaults of either
    import numpy as np

    try:
        with np.errstate(call=call, **err):
            _pieces(*args)
    except BaseException as exc:
        errors.append(exc)


def _in_place(rows, piece, arg, xs, work):
    """``rows(arg, xs, work)``, which leaves its result in ``work[0]``, on the two halves of a large array at once.

    A thread started for this call runs the first half and this thread the
    second, each ``piece`` points at a time; the started thread runs under
    the caller's numpy error state, and is joined before this returns or
    raises, its exception raised here.  Where the halves would be small
    this thread runs the whole array at once, and where the process may not
    use two CPUs, or no thread can be started, it runs the whole array
    ``_PIECE`` points at a time.  Each point takes the same steps either
    way, so the bits do not change.  Returns ``work[0]``.
    """
    if xs.size < 2 * _HALF_MIN:
        rows(arg, xs, work)
        return work[0]
    from . import _cpus

    if _cpus.two_cpus():
        import threading

        import numpy as np

        # each scratch row holds a piece of each half (_row_points)
        h = xs.size // 16 * 8
        first = (work[0][:h], *(w[:w.size // 2] for w in work[1:]))
        second = (work[0][h:], *(w[w.size // 2:] for w in work[1:]))
        errors = []
        thread = threading.Thread(target=_first_half, name="chebbound-kernels", daemon=True,
                                  args=(np.geterr(), np.geterrcall(), errors, rows, piece, arg, xs[:h], first))
        try:
            thread.start()
        except RuntimeError:
            # no thread to be had (a process limit, interpreter shutdown):
            # this thread runs the array alone, below
            pass
        else:
            # an interrupt of the join leaves the thread to finish its half
            # on arrays that no one reads
            try:
                _pieces(rows, piece, arg, xs[h:], second)
            finally:
                thread.join()
            if errors:
                raise errors[0]
            return work[0]
    # alone, this thread keeps every piece's live arrays in L2;
    # 131072-point taylor_kernel pieces ran 3% slower here
    _pieces(rows, _PIECE, arg, xs, work)
    return work[0]


def taylor_bracket(n, x):
    """The degree-n and degree-(n+1) Maclaurin sums of exp at a float x.

    Each end has the bits of ``taylor_kernel`` at its own degree.
    """
    lo = x ** 0.0
    # the upper end's first step, k = n + 1
    hi = 1.0 + lo * x / (n + 1)
    for k in range(n, 0, -1):
        lo = 1.0 + lo * x / k
        hi = 1.0 + hi * x / k
    return lo, hi


def evaluate(kernel, arg, x):
    """kernel(arg, points) at the points of x: a float for a scalar, else an ndarray.

    An array's result is a C-ordered float64 array of its shape.  ``kernel``
    is called once, on the whole array, with four work buffers as its third
    argument: the result, which the kernel fills, and three scratch rows of
    ``_row_points`` points.  An array of fewer than ``_PLAIN`` points runs
    on plain ``np.empty`` buffers; in a larger one, every buffer starts on
    a 64-byte boundary.  Callers pass it as ``_kernels.<name>`` looked up
    at call time, so a wrapper set on that module attribute (perfbench's
    tracer) sees every call.
    """
    if isinstance(x, (int, float)):
        return kernel(arg, float(x))
    import numpy as np

    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim == 0:
        return kernel(arg, float(xs))
    flat = xs.reshape(-1)
    size = flat.size
    if size < _PLAIN:
        # at once in this thread, on buffers whose addresses are not read
        out = np.empty(size)
        kernel(arg, flat, (out, np.empty(size), np.empty(size), np.empty(size)))
        return out.reshape(xs.shape)
    out = _aligned(np, size)
    # clenshaw_kernel's b1, b2 and step result; no closure here, whose cells
    # a float would pay for.  Under 4 MiB, numpy asks for no huge pages,
    # which a first touch would make resident 2 MiB at a time.
    part = _row_points(size)
    rows = _aligned(np, (_BUFFERS - 1) * part).reshape(_BUFFERS - 1, part)
    kernel(arg, flat, (out, *rows))
    return out.reshape(xs.shape)


def _aligned(np, size):
    """An uninitialised float64 array of ``size`` points on a 64-byte boundary."""
    raw = np.empty(size * 8 + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + size * 8].view(np.float64)
