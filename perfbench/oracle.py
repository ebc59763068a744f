"""Extended-precision reference values for checking the benchmark's outputs.

Written against mpmath's own special functions, not against chebbound's
code: Bessel values come from ``mp.besseli``, Chebyshev values from
powers of e^acosh|x| and the U recurrence at 40 digits, and the partial
sums from those.  Containment is judged against a 40-digit ``exp``; the
floats the package returns are compared exactly against it (mpmath
converts a float to an mpf without rounding).

A returned value is judged against a ``Ref`` in two steps (``judge``):

- it tracks the reference when it is within TRACK_RTOL, the tolerance of
  the acceptance tests;
- otherwise it is a "stray" when the miss stays within the rounding noise a
  float evaluation of that degree can carry, NOISE_C * eps * (degree + 1)
  times the sum of the magnitudes of the terms, and "wrong" beyond that.

Strays are the package's known conditioning defect (the alternating terms
cancel at moderate negative x).  A wrong value cannot come from rounding:
a lost term, a wrong coefficient or swapped bounds.  ``conditioned`` tells
the inputs where a float evaluation can track the reference from those
where it cannot; the timed workloads use the former, and the latter are
checked as known-defect inputs (see run.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp

DPS = 40

# Returned floats may differ from the extended-precision partial sums by
# this much relative to max(1, |reference|), as in the acceptance tests.
TRACK_RTOL = 1e-9

EPS = 2.0 ** -52
# Over the benchmark's inputs the package's misses stay below
# eps (degree + 1) scale (largest seen: 0.76 of it, a degree-2 sum at
# x = -1596); the bound leaves a wide margin above that and stays far below
# the miss of a lost or altered term.
NOISE_C = 64.0


@dataclass(frozen=True)
class Ref:
    """A reference value at DPS digits.

    ``scale`` is the sum of the magnitudes of the terms a float evaluation
    of ``degree`` rounds against; ``size`` is what TRACK_RTOL is relative
    to, max(1, |value|) when not given.
    """

    value: object
    scale: float
    degree: int
    size: float | None = None

    def __float__(self) -> float:
        return float(self.value)


def plain(value, degree: int = 0, size: float | None = None) -> Ref:
    """A reference whose evaluation has no cancellation: scale |value|."""
    return Ref(value, abs(float(value)), degree, size)


@lru_cache(maxsize=None)
def exp_coeffs(max_degree: int) -> tuple:
    """a_0 = I_0(1), a_k = 2 I_k(1) for k <= max_degree, at DPS digits."""
    with mp.workdps(DPS):
        return tuple(
            (1 if k == 0 else 2) * mp.besseli(k, 1) for k in range(max_degree + 1)
        )


def exp40(x: float):
    with mp.workdps(DPS):
        return mp.exp(mp.mpf(x))


def contains(lower: float, upper: float, x: float) -> bool:
    """True when lower <= exp(x) <= upper with exp taken to 40 digits.

    NaN on either side is a miss.
    """
    if math.isnan(lower) or math.isnan(upper):
        return False
    ref = exp40(x)
    return mp.mpf(lower) <= ref <= mp.mpf(upper)


def _cheb_t_abs(k_max: int, ax):
    """T_0..T_kmax at |x| = ax >= 1 as mpf, from powers of q = e^acosh(ax)."""
    q = ax + mp.sqrt(ax * ax - 1)
    qk = mp.mpf(1)
    out = []
    for _ in range(k_max + 1):
        out.append((qk + 1 / qk) / 2)
        qk *= q
    return out


def partial_sums(x: float, max_degree: int) -> list[Ref]:
    """Prefix sums S_0..S_max of sum a_k T_k(x) for x <= -1, at DPS digits."""
    if math.isinf(x):
        # the leading term dominates: T_k(-inf) = (-1)^k inf
        return [Ref(mp.inf if k % 2 == 0 else -mp.inf, math.inf, k) for k in range(max_degree + 1)]
    coeffs = exp_coeffs(max_degree)
    with mp.workdps(DPS):
        t_abs = _cheb_t_abs(max_degree, -mp.mpf(x))
        running, scale = mp.mpf(0), mp.mpf(0)
        sums = []
        for k in range(max_degree + 1):
            term = coeffs[k] * t_abs[k]
            running += term if k % 2 == 0 else -term
            scale += term
            sums.append(Ref(+running, float(scale), k))
        return sums


def taylor_sums(x: float, max_degree: int) -> list[Ref]:
    """Prefix sums of the Maclaurin series of exp at x, degrees 0..max."""
    with mp.workdps(DPS):
        xv = mp.mpf(x)
        term = mp.mpf(1)
        running, scale = mp.mpf(1), mp.mpf(1)
        sums = [Ref(+running, 1.0, 0)]
        for k in range(1, max_degree + 1):
            term = term * xv / k
            running += term
            scale += abs(term)
            sums.append(Ref(+running, float(scale), k))
        return sums


def cheb_t(n: int, x: float) -> Ref:
    """T_n(x) for x <= -1; scale is sum |T_k(x)| over k <= n."""
    with mp.workdps(DPS):
        t_abs = _cheb_t_abs(n, -mp.mpf(x))
        return Ref(t_abs[n] if n % 2 == 0 else -t_abs[n], float(mp.fsum(t_abs)), n)


def cheb_u(n: int, x: float) -> Ref:
    """U_n(x) for x <= -1; scale is sum |U_k(x)| over k <= n."""
    with mp.workdps(DPS):
        ax = -mp.mpf(x)
        u_abs = [mp.mpf(1), 2 * ax]
        while len(u_abs) <= n:
            u_abs.append(2 * ax * u_abs[-1] - u_abs[-2])
        u_abs = u_abs[:n + 1]
        return Ref(u_abs[n] if n % 2 == 0 else -u_abs[n], float(mp.fsum(u_abs)), n)


def tracks(value: float, ref, size: float | None = None) -> bool:
    """True when a returned float is within TRACK_RTOL of the reference,
    relative to ``size`` or else to max(1, |reference|).

    An infinite reference must be met exactly; NaN never tracks.
    """
    ref_f = float(ref)
    if math.isnan(value):
        return False
    if math.isinf(ref_f):
        return value == ref_f
    return abs(value - ref_f) <= TRACK_RTOL * (max(1.0, abs(ref_f)) if size is None else size)


def noise_bound(ref: Ref) -> float:
    """The largest miss that rounding in a float evaluation can explain."""
    return NOISE_C * EPS * (ref.degree + 1) * ref.scale


def conditioned(ref: Ref) -> bool:
    """True when a float evaluation of ``ref.degree`` can meet TRACK_RTOL:
    its rounding bound, eps (degree + 1) times the term magnitudes, is
    within TRACK_RTOL of ``ref``.  Strays only occur where this is false;
    over the benchmark's inputs the smallest stray bound seen is 2.4e-7."""
    ref_f = float(ref.value)
    if not (math.isfinite(ref_f) and math.isfinite(ref.scale)):
        return False
    size = max(1.0, abs(ref_f)) if ref.size is None else ref.size
    return EPS * (ref.degree + 1) * ref.scale <= TRACK_RTOL * size


def judge(value: float, ref: Ref) -> str | None:
    """None when ``value`` tracks ``ref``; else "nan", "stray" (within the
    rounding noise of its evaluation) or "wrong" (beyond it)."""
    if math.isnan(value):
        return "nan"
    if tracks(value, ref.value, ref.size):
        return None
    ref_f = float(ref.value)
    if math.isinf(ref_f) or abs(value - ref_f) <= noise_bound(ref):
        return "stray"
    return "wrong"


def judge_all(values, refs) -> list[str]:
    """The distinct verdicts other than None over paired values and refs."""
    return sorted({v for v in map(judge, values, refs) if v})


def _u_in_t_basis(n: int) -> list:
    """Integer T-basis coefficients of U_n (U_{-1} = 0)."""
    if n < 0:
        return [0]
    c = [0] * (n + 1)
    for j in range(n, -1, -2):
        c[j] = 2
    if n % 2 == 0:
        c[0] = 1
    return c


@lru_cache(maxsize=None)
def certificate_poly(n: int) -> list:
    """T-basis coefficients of G_n = I_n(1) U_n + I_{n+1}(1) U_{n-1}, as mpf."""
    with mp.workdps(DPS):
        i_n, i_np1 = mp.besseli(n, 1), mp.besseli(n + 1, 1)
        un, unm1 = _u_in_t_basis(n), _u_in_t_basis(n - 1)
        return [
            i_n * un[j] + (i_np1 * unm1[j] if j < len(unm1) else 0)
            for j in range(n + 1)
        ]


def certificate_refs(n: int) -> list[Ref]:
    """References for the T-basis coefficients of G_n: TRACK_RTOL is
    relative to the largest one, the noise to their sum."""
    coeffs = certificate_poly(n)
    size = max(abs(float(c)) for c in coeffs)
    scale = sum(abs(float(c)) for c in coeffs)
    return [Ref(c, scale, n, size) for c in coeffs]
