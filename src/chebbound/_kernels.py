"""Clenshaw and Horner kernels, the Maclaurin bracket kernel, and ``evaluate``.

Each kernel runs a Python loop over the recurrence index in one of two
forms.  Without ``work`` it uses only arithmetic operators, so one function
serves both kinds of point: ``xs`` is either a Python float, giving a float,
or a float64 ndarray, giving an ndarray of the same shape with one
whole-array operation per step.  With ``work``, a tuple of float64 buffers
of ``xs``' length, it runs the same operations in the same order in place,
each ufunc writing to a buffer given as its positional output, and returns
one of the buffers.  IEEE arithmetic rounds each element on its own, so a
float, the same value inside an array and either loop form give the same
bits.  The operator form is tested first, so a float pays one ``is None``
check.

``evaluate`` is the one route from a point argument to a kernel.  A scalar
(a Python or numpy int or float, or a 0-d array) runs the operator form in
Python floats and gives a Python float.  Every other array, whatever its
size, runs in place, ``BLOCK`` points at a time, and gives a float64
ndarray of its shape.  Over the whole array at once, each step would stream
the points and the recurrence's arrays through memory; a 2M-point array is
16 MB, far above the per-core L2 cache.  Over a block, the live arrays (the
points and four buffers: 1.25 MiB at 32768 points) stay in L2 for all
steps.  ``BLOCK`` comes from two scans of 4096..131072 points on 2M points
(best of 5): Clenshaw at degree 64 in the operator form, and a
10-evaluation grid round in the in-place form; 32768 was fastest in both
(CHANGES.md gives the figures).  Blocks cannot change a bit: ``+ - * /``
round each element on its own, whatever the slice or the SIMD path, and a
block applies the same operations in the same order to each point.

``evaluate`` cuts four buffers of at most ``BLOCK`` points from one
allocation, each on a 64-byte boundary, and runs the kernel in place on
them.  The operator form's temporaries land wherever malloc puts them, so
its timing followed the heap's history: the in-place loop ran that grid
round in 717-728 ms on aligned buffers but in 868-1041 ms on buffers 8,
16, 32 or 48 bytes past a boundary, and on 32768 points the operator loop
took 235 minor page faults against 31 in place.  The buffers belong to one
call of ``evaluate`` and are never kept, so threads may evaluate at the
same time, and no result shares memory with them.

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

# points per block, from the scans above
BLOCK = 32768

# buffers cut by ``evaluate``: clenshaw_kernel's 2x, b1, b2 and its step
# result; taylor_kernel uses the first
_BUFFERS = 4
_ALIGN = 64


def clenshaw_kernel(coeffs, xs, work=None):
    """Backward Clenshaw recurrence for sum_j coeffs[j]*T_j at each x.

    ``coeffs`` is any sequence of floats, at least one long.  ``work``, if
    given, holds four float64 arrays of ``xs``' size; the result is then
    one of them.
    """
    if work is None:
        # 2.0 * xs * b1 is (2.0 * xs) * b1, so hoisting 2x keeps every bit
        x2 = 2.0 * xs
        b1 = b2 = 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = x2 * b1 + c - b2, b1
        return xs * b1 + coeffs[0] - b2
    import numpy as np

    multiply, add, subtract = np.multiply, np.add, np.subtract
    x2, b1, b2, t = work
    multiply(2.0, xs, x2)
    # zeros give the bits of the operator form's scalar 0.0 start
    b1.fill(0.0)
    b2.fill(0.0)
    for c in coeffs[:0:-1]:
        multiply(x2, b1, t)
        add(t, c, t)
        subtract(t, b2, t)
        b1, b2, t = t, b1, b2
    multiply(xs, b1, t)
    add(t, coeffs[0], t)
    return subtract(t, b2, t)


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
    import numpy as np

    multiply, divide, add = np.multiply, np.divide, np.add
    v = work[0]
    np.power(xs, 0.0, v)
    for k in range(n, 0, -1):
        multiply(v, xs, v)
        divide(v, k, v)
        add(1.0, v, v)
    return v


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
    is called once per block, with four aligned work buffers of the block's
    size as its third argument.  Callers pass it as ``_kernels.<name>``
    looked up at call time, so a wrapper set on that module attribute
    (perfbench's tracer) sees every call.
    """
    if isinstance(x, (int, float)):
        return kernel(arg, float(x))
    import numpy as np

    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim == 0:
        return kernel(arg, float(xs))
    flat = xs.reshape(-1)
    out = np.empty(flat.size)
    # one row per buffer, its bytes rounded up to the alignment, plus room
    # to align the first; no closure here, whose cells a float would pay for
    stride = -(-min(flat.size, BLOCK) * 8 // _ALIGN) * _ALIGN
    raw = np.empty(_BUFFERS * stride + _ALIGN, dtype=np.uint8)
    first = -raw.ctypes.data % _ALIGN
    rows = raw[first:first + _BUFFERS * stride].view(np.float64).reshape(_BUFFERS, stride // 8)
    for i in range(0, flat.size, BLOCK):
        block = flat[i:i + BLOCK]
        out[i:i + BLOCK] = kernel(arg, block, tuple(rows[:, :block.size]))
    return out.reshape(xs.shape)
