"""Mechanical re-verification of the bracketing conditions, degree by degree.

The bracket at degree N hinges on a certificate polynomial

    G_N = f_N - f_N'  =  I_N(1) U_N + I_{N+1}(1) U_{N-1},

whose sign on (-inf, -1) is (-1)^N.  This module builds G_N along two
independent algebraic routes (series-minus-derivative, and the compact U
form) and checks them against each other, evaluates the five-part
quadratic-in-e^t decomposition that exhibits the sign, and issues a
per-degree accept/reject certificate from three discriminant conditions on
the ratio bound 4/(5(N+1)), decided exactly in integers scaled by the
square of its denominator.

Coefficients rest on fixed-point integers scaled by 2^bits.  The closed
form takes I_N(1) and I_{N+1}(1) as the lower ends of
:func:`chebbound.bessel.series_sum` at x = 1 and bits =
:func:`chebbound.bessel._bits_at_one` (N), the series summed in integers
with every term floored, so each lies below 2^bits I_k(1) by less than
(terms + 2) units.  The reduction route reads every I_k(1), k = 0..N, from
the table ``chebbound.bessel._AT_ONE``, built once at import from two sums
and an exact backward recurrence at 1149 bits, each entry within 2 units
below 2^1149 I_k(1).
The closed form runs no recurrence and the reduction route no U expansion,
so their bit-for-bit agreement is a cross-check.  The algebra on top runs
exactly on integer numerators over 2^bits.  Both 2^-bits are more than
2^117 times smaller than I_N(1), the size of the residuals that the
reduction route leaves after cancelling terms of order one, so the one
rounding that shows is the final, correctly rounded division of each
coefficient by 2^bits.  The decomposition takes its Bessel values from the
closed form's integers, computed once per degree.  The table ends at
I_151(1), so every builder here refuses N >= 151, where a_N is below the
smallest normal float, as :func:`chebbound.expseries.partial_sum` does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .bessel import _AT_ONE, _AT_ONE_BITS, _bits_at_one, bessel_ratio_bound, series_sum
from .chebpoly import (
    ChebSeries,
    clenshaw_eval,
    differentiate,
    differentiate_coeffs,
    u_to_t_coeffs,
)
from .errors import DomainError, _degree
from .expseries import _coefficient_degree, partial_sum

__all__ = [
    "Certificate",
    "QuadraticInE",
    "build_G_via_reduction",
    "build_G_closed_form",
    "decomposition_poly",
    "decomposition_quadratics",
    "reduction_identity_residual",
    "decomposition_check",
    "decomposition_terms",
    "sign_certificate",
    "grid_sign_scan",
]

# refuse the decomposition once its largest exponential, e^{(2N+3)t}, would
# leave float64 range
_EXP_ARG_LIMIT = 700.0


@lru_cache(maxsize=None, typed=True)
def build_G_via_reduction(n: int) -> ChebSeries:
    """G_n obtained as f_n minus its derivative, both in the T basis.

    The exponential cancels between the truncation error and its
    derivative, so the difference is the certificate polynomial itself.
    The Bessel integers are the first n + 1 of the table
    ``chebbound.bessel._AT_ONE``, read and not summed again; coefficient
    algebra runs exactly on integer numerators over 2^1149, and each
    coefficient is rounded to float64 once, on return.  DomainError from
    n = 151, where the table ends.
    """
    m = _coefficient_degree(n, 0, "build_G_via_reduction")
    if m is not n:
        return build_G_via_reduction(m)
    # 2^bits times a_0 = I_0(1) and a_k = 2 I_k(1)
    a = [(2 if k else 1) * v for k, v in enumerate(_AT_ONE[: n + 1])]
    d = differentiate_coeffs(a)
    g = [a[j] - (d[j] if j < len(d) else 0) for j in range(n)]
    g.append(a[n])
    return ChebSeries([v / (1 << _AT_ONE_BITS) for v in g])


@lru_cache(maxsize=None)
def _closed_form_ints(n: int) -> tuple[int, int, int, tuple[int, ...]]:
    """(bits, i_n, i_np1, g): I_n(1), I_{n+1}(1) and the T coefficients of
    I_n(1) U_n + I_{n+1}(1) U_{n-1}, all as integers times 2^bits."""
    bits = _bits_at_one(n)
    i_n, i_np1 = (series_sum(k, 1.0, bits)[0] for k in (n, n + 1))
    un = u_to_t_coeffs(n)
    unm1 = u_to_t_coeffs(n - 1)
    g = tuple(i_n * un[j] + (i_np1 * unm1[j] if j < len(unm1) else 0) for j in range(n + 1))
    return bits, i_n, i_np1, g


@lru_cache(maxsize=None, typed=True)
def build_G_closed_form(n: int) -> ChebSeries:
    """G_n assembled as I_n(1) U_n + I_{n+1}(1) U_{n-1} in the T basis.

    Combines the integer sums (the Bessel values times 2^bits) with the
    exact integer U-to-T expansions, so the only rounding is the final,
    correctly rounded division of each coefficient by 2^bits.
    """
    m = _coefficient_degree(n, 0, "build_G_closed_form")
    if m is not n:
        return build_G_closed_form(m)
    bits, _, _, g = _closed_form_ints(n)
    return ChebSeries([v / (1 << bits) for v in g])


@lru_cache(maxsize=None, typed=True)
def decomposition_poly(n: int) -> ChebSeries:
    """The polynomial variant whose transform splits into the five terms.

    I_{n+1}(1) U_{n-1} + I_n(1) U_{n-2} - I_n(1) + I_n(1) T_n, which is
    exactly G_n - I_n(1) (1 + T_n) since U_n - U_{n-2} = 2 T_n: it carries
    half the leading coefficient of G_n.  The five-part split in
    :func:`decomposition_terms` is an exact identity for this variant, not
    for G_n itself.
    """
    m = _coefficient_degree(n, 1, "decomposition_poly")
    if m is not n:
        return decomposition_poly(m)
    bits, i_n, _, g = _closed_form_ints(n)
    c = [v - i_n if j in (0, n) else v for j, v in enumerate(g)]
    return ChebSeries([v / (1 << bits) for v in c])


def reduction_identity_residual(n: int, x: float) -> float:
    """Relative residual of f_n(x) - f_n'(x) = G_n(x) in double precision.

    Left side through the double-precision series and derivative pipeline,
    right side from the closed form; the residual is scaled by the largest
    magnitude entering the identity, max(1, |f_n|, |f_n'|, |G_n|).
    """
    n = _degree(n, 0, "reduction_identity_residual")
    f = partial_sum(n)
    fv = clenshaw_eval(f, x)
    fpv = clenshaw_eval(differentiate(f), x)
    gv = clenshaw_eval(build_G_closed_form(n), x)
    scale = max(1.0, abs(fv), abs(fpv), abs(gv))
    return abs((fv - fpv) - gv) / scale


class QuadraticInE(namedtuple("QuadraticInE", "a2 a1 a0")):
    """Quadratic a2 u^2 + a1 u + a0 in the variable u = e^t, as a named tuple."""

    __slots__ = ()

    def __call__(self, u: float) -> float:
        return (self.a2 * u + self.a1) * u + self.a0


def _decomposition_params(n: int, r: float):
    """Split parameters a, b, c, d.

    For n >= 2 all four special indices n-2..n+1 lie inside 0..2n-1 and the
    choice is a = d = 2r, b = c = 2(-1)^n - 2r.  For n = 1 the indices n+1
    and n-2 fall outside the geometric sum, so their absorbers a, d vanish
    and b = c = 2(-1)^n carry the whole cross term.
    """
    sign2 = 2.0 * (-1) ** n
    a = d = 2.0 * r if n >= 2 else 0.0
    return a, sign2 - a, sign2 - d, d


def decomposition_quadratics(n: int) -> tuple[QuadraticInE, ...]:
    """The five quadratics in e^t underlying the pieces A..E at degree n."""
    n = _coefficient_degree(n, 1, "the decomposition")
    _, i_n, i_np1, _ = _closed_form_ints(n)
    r = i_np1 / i_n
    a, b, c, d = _decomposition_params(n, r)
    return (
        QuadraticInE(1.0, -2.0 * r, 1.0),
        QuadraticInE(1.0, -2.0 * r, 1.0 - a),
        QuadraticInE(1.0, -2.0 * r - b, 1.0),
        QuadraticInE(1.0, -2.0 * r - c, 1.0),
        QuadraticInE(1.0 - d, -2.0 * r, 1.0),
    )


def decomposition_terms(n: int, t: float) -> tuple[float, float, float, float, float]:
    """The five pieces A..E of the transformed certificate polynomial.

    Each piece is e^{kt} times one of :func:`decomposition_quadratics` at
    u = e^t (A sums its quadratic over the non-special exponents), so all
    five are nonnegative whenever the discriminant conditions of
    :func:`sign_certificate` hold; their sum equals the quantity checked by
    :func:`decomposition_check`.
    """
    n = _validate_decomposition_args(n, t)
    q_a, q_b, q_c, q_d, q_e = decomposition_quadratics(n)
    e1 = math.exp(t)
    special = {n - 2, n - 1, n, n + 1}
    term_a = sum((math.exp(k * t) * q_a(e1) for k in range(0, 2 * n) if k not in special), 0.0)
    term_b = math.exp((n + 1) * t) * q_b(e1) if n >= 2 else 0.0
    term_c = math.exp(n * t) * q_c(e1)
    term_d = math.exp((n - 1) * t) * q_d(e1)
    term_e = math.exp((n - 2) * t) * q_e(e1) if n >= 2 else 0.0
    return term_a, term_b, term_c, term_d, term_e


def _validate_decomposition_args(n: int, t: float) -> int:
    """n as an int, once n and t are checked."""
    n = _coefficient_degree(n, 1, "the decomposition")
    if not t > 0:
        raise DomainError("the decomposition needs t > 0")
    if t < 1e-6:
        raise DomainError("t below 1e-6 is refused: (e^t - 1) is evaluated directly")
    if (2 * n + 3) * t > _EXP_ARG_LIMIT:
        raise DomainError("e^{(2n+3)t} would leave float64 range")
    return n


def decomposition_check(n: int, t: float) -> float:
    """Relative residual between the transformed polynomial and A+..+E.

    The left side evaluates the variant polynomial at -cosh(t), multiplied
    by 4 (-1)^n sinh(t) e^{(n+1)t} / (I_n(1)(e^t - 1)); the right side sums
    the five pieces built directly from exponentials.  Plain float64
    throughout: this is a consistency diagnostic, not the certified path.
    """
    n = _validate_decomposition_args(n, t)
    bits, i_n, _, _ = _closed_form_ints(n)
    x = -math.cosh(t)
    kval = clenshaw_eval(decomposition_poly(n), x)
    lhs = (
        4.0
        * (-1) ** n
        * kval
        * math.sinh(t)
        * math.exp((n + 1) * t)
        / (i_n / (1 << bits) * (math.exp(t) - 1.0))
    )
    rhs = sum(decomposition_terms(n, t))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


class Certificate(namedtuple("Certificate", "n ratio_bound cond_unit_quadratic "
                                           "cond_shifted_quadratic cond_leading_positive verdict")):
    """Accept/reject record for the sign conditions at one degree, as a named tuple.

    ``ratio_bound`` is a Fraction; the three conditions are bools.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            # printed unreduced over the numerator 4: 4/20, not 1/5
            "ratio_bound": {"num": 4, "den": int(4 / self.ratio_bound)},
            "conditions": {
                "unit_quadratic": self.cond_unit_quadratic,
                "shifted_quadratic": self.cond_shifted_quadratic,
                "leading_positive": self.cond_leading_positive,
            },
            "verdict": self.verdict,
        }


def sign_certificate(n: int) -> Certificate:
    """Check the three discriminant conditions at degree n exactly.

    With rb = 4/(5(n+1)) the conditions are 4 rb^2 - 4 < 0,
    4 rb^2 - 4(1 - 2 rb) < 0 and 1 - 2 rb > 0; together they make every
    piece of the decomposition nonnegative for t > 0, certifying that
    (-1)^n G_n > 0 on (-inf, -1) and hence the bracket at this degree.
    Arithmetic is exact: with rb = p/q, each condition is decided on
    integers after scaling by q^2 > 0, independent of any floating-point
    Bessel evaluation.
    """
    n = _degree(n, 1, "sign_certificate")
    rb = bessel_ratio_bound(n, 1.0, specialize=True)
    # rb^2 < 1, rb^2 + 2 rb < 1 and 2 rb < 1, each times q^2 (q for the last)
    p, q = rb.numerator, rb.denominator
    cond_unit = p * p < q * q
    cond_shifted = p * p + 2 * p * q < q * q
    cond_leading = 2 * p < q
    accepted = cond_unit and cond_shifted and cond_leading
    return Certificate(
        n=n,
        ratio_bound=rb,
        cond_unit_quadratic=cond_unit,
        cond_shifted_quadratic=cond_shifted,
        cond_leading_positive=cond_leading,
        verdict="accepted" if accepted else "rejected",
    )


@lru_cache(maxsize=4)
def _scan_grid(x_min: float, points: int):
    """The read-only log grid of :func:`grid_sign_scan`, built once per (x_min, points)."""
    import numpy as np

    grid = -np.geomspace(-x_min, 1.0 + 1e-6, points)
    grid.flags.writeable = False
    return grid


def grid_sign_scan(n: int, x_min: float, points: int) -> bool:
    """Empirical complement to the certificate: sign of G_n on a log grid.

    Evaluates the reduction-built G_n on ``points`` log-spaced abscissae
    from ``x_min`` up to -1 - 1e-6 and reports whether (-1)^n G_n stays
    strictly positive everywhere.  Raises DomainError when G_n leaves the
    float range on the grid, where its sign could no longer be read.
    """
    n = _coefficient_degree(n, 1, "grid_sign_scan")
    if not -math.inf < x_min < -1.0:
        raise DomainError("grid_sign_scan needs a finite x_min < -1")
    points = _degree(points, 10, "grid_sign_scan's point count")
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        vals = clenshaw_eval(build_G_via_reduction(n), _scan_grid(x_min, points))
        # a NaN anywhere propagates into both
        lo, hi = float(vals.min()), float(vals.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"G_{n} leaves the float range on [{x_min!r}, -1)")
    # (-1)^n G_n > 0 at every point
    return hi < 0.0 if n % 2 else lo > 0.0
