"""Mechanical re-verification of the bracketing conditions, degree by degree.

The bracket at degree N hinges on a certificate polynomial

    G_N = f_N - f_N'  =  I_N(1) U_N + I_{N+1}(1) U_{N-1},

whose sign on (-inf, -1) is (-1)^N.  This module builds G_N along two
independent algebraic routes (series-minus-derivative, and the compact U
form) and checks them against each other, evaluates the five-part
quadratic-in-e^t decomposition that exhibits the sign, and issues a
per-degree accept/reject certificate from three exact rational discriminant
conditions on the ratio bound 4/(5(N+1)).

Coefficients rest on fixed-point integers: each I_k(1) is summed in
integers scaled by 2^bits, flooring every term, so it lies below I_k(1) by
less than (terms + 2) units of 2^-bits, and the algebra on top is exact
(fractions).  2^-bits is 2^112 or more times smaller than I_N(1), the size
of the residuals that the reduction route leaves after cancelling terms of
order one, so the one rounding that shows is the final cast of each
coefficient to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bessel import bessel_i, bessel_ratio_bound
from .chebpoly import (
    ChebSeries,
    clenshaw_eval,
    differentiate,
    differentiate_coeffs,
    u_to_t_coeffs,
)
from .errors import DomainError
from .expseries import partial_sum

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


def _working_bits(n: int) -> int:
    """Fixed-point bits for G_n: some 35 decimal digits below I_n(1) ~ 1/(2^n n!)."""
    digits = 35 if n < 2 else 35 + int(0.30103 * n + math.lgamma(n + 1) / math.log(10.0))
    return math.ceil(digits * math.log2(10))


def _bessel_at_one(k: int, bits: int) -> Fraction:
    """I_k(1) to a multiple of 2^-bits, low by less than (terms + 2) units.

    Term m, (1/2)^(2m+k) / (m! (m+k)!), is held as floor(2^bits term): the
    floors nest, so each update ``term //= 4m(m+k)`` keeps that exactly.
    """
    term = (1 << bits) // ((1 << k) * math.factorial(k))
    total, m = 0, 0
    while term:
        total += term
        m += 1
        term //= 4 * m * (m + k)
    return Fraction(total, 1 << bits)


@lru_cache(maxsize=None)
def build_G_via_reduction(n: int) -> ChebSeries:
    """G_n obtained as f_n minus its derivative, both in the T basis.

    The exponential cancels between the truncation error and its
    derivative, so the difference is the certificate polynomial itself.
    Coefficient algebra runs in exact fractions and is rounded to float64
    on return.
    """
    if n < 0:
        raise DomainError("build_G_via_reduction needs n >= 0")
    bits = _working_bits(n)
    a = [_bessel_at_one(0, bits)] + [2 * _bessel_at_one(k, bits) for k in range(1, n + 1)]
    d = differentiate_coeffs(a)
    g = [a[j] - (d[j] if j < len(d) else 0) for j in range(n)]
    g.append(a[n])
    return ChebSeries(np.array([float(v) for v in g], dtype=np.float64))


@lru_cache(maxsize=None)
def build_G_closed_form(n: int) -> ChebSeries:
    """G_n assembled as I_n(1) U_n + I_{n+1}(1) U_{n-1} in the T basis.

    Uses the exact integer U-to-T expansions, so the only rounding is the
    final cast of each coefficient to float64.
    """
    if n < 0:
        raise DomainError("build_G_closed_form needs n >= 0")
    bits = _working_bits(n)
    i_n = _bessel_at_one(n, bits)
    i_np1 = _bessel_at_one(n + 1, bits)
    un = u_to_t_coeffs(n)
    unm1 = u_to_t_coeffs(n - 1)
    g = [i_n * un[j] + (i_np1 * unm1[j] if j < len(unm1) else 0) for j in range(n + 1)]
    return ChebSeries(np.array([float(v) for v in g], dtype=np.float64))


@lru_cache(maxsize=None)
def decomposition_poly(n: int) -> ChebSeries:
    """The polynomial variant whose transform splits into the five terms.

    I_{n+1}(1) U_{n-1} + I_n(1) U_{n-2} - I_n(1) + I_n(1) T_n: it differs
    from the reduction polynomial by I_n(1) (1 + T_n), carrying half its
    leading coefficient.  The five-part split in :func:`decomposition_terms`
    is an exact identity for this variant, not for G_n itself.
    """
    if n < 1:
        raise DomainError("decomposition_poly needs n >= 1")
    i_n = bessel_i(n, 1.0)
    i_np1 = bessel_i(n + 1, 1.0)
    unm1 = u_to_t_coeffs(n - 1)
    unm2 = u_to_t_coeffs(n - 2)
    c = np.zeros(n + 1)
    for j, v in enumerate(unm1):
        c[j] += i_np1 * v
    for j, v in enumerate(unm2):
        c[j] += i_n * v
    c[0] -= i_n
    c[n] += i_n
    return ChebSeries(c)


def reduction_identity_residual(n: int, x: float) -> float:
    """Relative residual of f_n(x) - f_n'(x) = G_n(x) in double precision.

    Left side through the double-precision series and derivative pipeline,
    right side from the closed form; the residual is scaled by the largest
    magnitude entering the identity, max(1, |f_n|, |f_n'|, |G_n|).
    """
    if n < 0:
        raise DomainError("reduction_identity_residual needs n >= 0")
    f = partial_sum(n)
    fv = clenshaw_eval(f, x)
    fpv = clenshaw_eval(differentiate(f), x)
    gv = clenshaw_eval(build_G_closed_form(n), x)
    scale = max(1.0, abs(fv), abs(fpv), abs(gv))
    return abs((fv - fpv) - gv) / scale


@dataclass(frozen=True)
class QuadraticInE:
    """Quadratic a2 u^2 + a1 u + a0 in the variable u = e^t."""

    a2: float
    a1: float
    a0: float

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
    if n < 1:
        raise DomainError("the decomposition needs n >= 1")
    r = bessel_i(n + 1, 1.0) / bessel_i(n, 1.0)
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
    _validate_decomposition_args(n, t)
    q_a, q_b, q_c, q_d, q_e = decomposition_quadratics(n)
    e1 = math.exp(t)
    special = {n - 2, n - 1, n, n + 1}
    term_a = sum((math.exp(k * t) * q_a(e1) for k in range(0, 2 * n) if k not in special), 0.0)
    term_b = math.exp((n + 1) * t) * q_b(e1) if n >= 2 else 0.0
    term_c = math.exp(n * t) * q_c(e1)
    term_d = math.exp((n - 1) * t) * q_d(e1)
    term_e = math.exp((n - 2) * t) * q_e(e1) if n >= 2 else 0.0
    return term_a, term_b, term_c, term_d, term_e


def _validate_decomposition_args(n: int, t: float) -> None:
    if n < 1:
        raise DomainError("the decomposition needs n >= 1")
    if not t > 0:
        raise DomainError("the decomposition needs t > 0")
    if t < 1e-6:
        raise DomainError("t below 1e-6 is refused: (e^t - 1) is evaluated directly")
    if (2 * n + 3) * t > _EXP_ARG_LIMIT:
        raise OverflowError("e^{(2n+3)t} would leave float64 range")


def decomposition_check(n: int, t: float) -> float:
    """Relative residual between the transformed polynomial and A+..+E.

    The left side evaluates the variant polynomial at -cosh(t), multiplied
    by 4 (-1)^n sinh(t) e^{(n+1)t} / (I_n(1)(e^t - 1)); the right side sums
    the five pieces built directly from exponentials.  Plain float64
    throughout: this is a consistency diagnostic, not the certified path.
    """
    _validate_decomposition_args(n, t)
    x = -math.cosh(t)
    kval = clenshaw_eval(decomposition_poly(n), x)
    lhs = (
        4.0
        * (-1) ** n
        * kval
        * math.sinh(t)
        * math.exp((n + 1) * t)
        / (bessel_i(n, 1.0) * (math.exp(t) - 1.0))
    )
    rhs = sum(decomposition_terms(n, t))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


@dataclass(frozen=True)
class Certificate:
    """Accept/reject record for the sign conditions at one degree."""

    n: int
    ratio_bound: Fraction
    cond_unit_quadratic: bool
    cond_shifted_quadratic: bool
    cond_leading_positive: bool
    verdict: str

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
    """Check the three discriminant conditions at degree n in exact rationals.

    With rb = 4/(5(n+1)) the conditions are 4 rb^2 - 4 < 0,
    4 rb^2 - 4(1 - 2 rb) < 0 and 1 - 2 rb > 0; together they make every
    piece of the decomposition nonnegative for t > 0, certifying that
    (-1)^n G_n > 0 on (-inf, -1) and hence the bracket at this degree.
    Arithmetic is exact (fractions), independent of any floating-point
    Bessel evaluation.
    """
    if n < 1:
        raise DomainError("certificates are defined for n >= 1")
    rb = bessel_ratio_bound(n, 1.0, specialize=True)
    cond_unit = 4 * rb * rb - 4 < 0
    cond_shifted = 4 * rb * rb - 4 * (1 - 2 * rb) < 0
    cond_leading = 1 - 2 * rb > 0
    accepted = cond_unit and cond_shifted and cond_leading
    return Certificate(
        n=n,
        ratio_bound=rb,
        cond_unit_quadratic=cond_unit,
        cond_shifted_quadratic=cond_shifted,
        cond_leading_positive=cond_leading,
        verdict="accepted" if accepted else "rejected",
    )


def grid_sign_scan(n: int, x_min: float, points: int) -> bool:
    """Empirical complement to the certificate: sign of G_n on a log grid.

    Evaluates the reduction-built G_n on ``points`` log-spaced abscissae
    from ``x_min`` up to -1 - 1e-6 and reports whether (-1)^n G_n stays
    strictly positive everywhere.
    """
    if n < 1:
        raise DomainError("grid_sign_scan needs n >= 1")
    if not x_min < -1.0:
        raise DomainError("grid_sign_scan needs x_min < -1")
    if points < 10:
        raise DomainError("grid_sign_scan needs at least 10 points")
    grid = -np.geomspace(-x_min, 1.0 + 1e-6, points)
    vals = clenshaw_eval(build_G_via_reduction(n), grid)
    return bool(np.all((-1) ** n * vals > 0.0))
