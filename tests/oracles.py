"""Independent extended-precision oracles for the test suite.

Everything here is deliberately written against different algorithms than
the package under test: Bessel values come from the explicit factorial
series, exp from an argument-reduced Maclaurin sum with repeated squaring,
and Chebyshev values from the hyperbolic/trigonometric closed forms.  The
composite oracles are themselves cross-checked against mpmath's own
implementations in test_oracles.py.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp

DPS = 80


def mp_bessel_i(n: int, x, dps: int = DPS) -> mp.mpf:
    """I_n(x) by direct summation of (x/2)^(2m+n) / (m! (m+n)!), to ``dps`` digits."""
    with mp.workdps(dps):
        xv = mp.mpf(x)
        half = xv / 2
        total = mp.mpf(0)
        tiny = mp.mpf(10) ** (-(dps + 10))
        for m in range(dps * 4 + 100):
            term = half ** (2 * m + n) / (mp.factorial(m) * mp.factorial(m + n))
            total += term
            if m > 2 and term < tiny * total:
                return total
        raise RuntimeError("oracle bessel series failed to converge")


def mp_exp(x) -> mp.mpf:
    """exp(x) from a Maclaurin sum on x / 2^m, squared back m times."""
    with mp.workdps(DPS + 20):
        xv = mp.mpf(x)
        m = 0
        while abs(xv) > mp.mpf("0.5"):
            xv /= 2
            m += 1
        term = mp.mpf(1)
        total = mp.mpf(1)
        tiny = mp.mpf(10) ** (-(DPS + 25))
        for k in range(1, 500):
            term = term * xv / k
            total += term
            if abs(term) < tiny * abs(total):
                break
        for _ in range(m):
            total = total * total
        return +total


def mp_cheb_T(n: int, x) -> mp.mpf:
    """T_n(x) through cosh(n acosh |x|) outside [-1, 1], cos(n acos x) inside."""
    with mp.workdps(DPS):
        xv = mp.mpf(x)
        if abs(xv) <= 1:
            return mp.cos(n * mp.acos(xv))
        sign = mp.mpf(-1) ** n if xv < 0 else mp.mpf(1)
        return sign * mp.cosh(n * mp.acosh(abs(xv)))


def mp_cheb_U(n: int, x) -> mp.mpf:
    """U_n(x) through the sinh/sin ratio closed forms."""
    with mp.workdps(DPS):
        if n == -1:
            return mp.mpf(0)
        xv = mp.mpf(x)
        if abs(xv) < 1:
            theta = mp.acos(xv)
            return mp.sin((n + 1) * theta) / mp.sin(theta)
        if abs(xv) == 1:
            base = mp.mpf(n + 1)
        else:
            t = mp.acosh(abs(xv))
            base = mp.sinh((n + 1) * t) / mp.sinh(t)
        sign = mp.mpf(-1) ** n if xv < 0 else mp.mpf(1)
        return sign * base


@lru_cache(maxsize=None)
def mp_exp_cheb_coeffs(max_degree: int) -> tuple:
    """a_0..a_max as high-precision values (a_0 = I_0(1), a_n = 2 I_n(1))."""
    with mp.workdps(DPS):
        out = [mp_bessel_i(0, 1)]
        out.extend(2 * mp_bessel_i(k, 1) for k in range(1, max_degree + 1))
        return tuple(out)


def mp_partial_sums(x, max_degree: int) -> list:
    """Prefix sums S_0..S_max of sum a_n T_n(x), in one incremental pass.

    For |x| > 1 the T values come from powers of e^acosh|x| so the whole
    chain stays independent of any recurrence-based evaluation.
    """
    coeffs = mp_exp_cheb_coeffs(max_degree)
    with mp.workdps(DPS):
        xv = mp.mpf(x)
        sums = []
        if abs(xv) > 1:
            neg = xv < 0
            q = mp.exp(mp.acosh(abs(xv)))
            qp = mp.mpf(1)
            running = mp.mpf(0)
            for n in range(max_degree + 1):
                t_abs = (qp + 1 / qp) / 2
                t_n = -t_abs if (neg and n % 2 == 1) else t_abs
                running += coeffs[n] * t_n
                sums.append(+running)
                qp *= q
        else:
            running = mp.mpf(0)
            for n in range(max_degree + 1):
                running += coeffs[n] * mp_cheb_T(n, xv)
                sums.append(+running)
        return sums


def mp_taylor_prefix_sums(x, max_degree: int) -> list:
    """Prefix sums of the Maclaurin series of exp at x, degrees 0..max."""
    with mp.workdps(DPS):
        xv = mp.mpf(x)
        term = mp.mpf(1)
        running = mp.mpf(1)
        sums = [+running]
        for k in range(1, max_degree + 1):
            term = term * xv / k
            running += term
            sums.append(+running)
        return sums
