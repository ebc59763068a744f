"""Certified two-sided polynomial brackets of exp(x) on (-inf, -1).

The expansion of exp in first-kind Chebyshev polynomials on [-1, 1] has
coefficients built from modified Bessel values at 1; its odd-degree
truncations bound exp from below and its even-degree truncations from above
everywhere left of -1.  This package computes the coefficients, evaluates
the brackets, re-verifies the sign conditions behind them for any degree,
and ships a CLI that emits the results as CSV/JSON.
"""

from .bessel import (
    Interval,
    bessel_i,
    bessel_i_enclosure,
    bessel_ratio_bound,
    recurrence_residual,
)
from .certificate import (
    Certificate,
    QuadraticInE,
    build_G_closed_form,
    build_G_via_reduction,
    decomposition_check,
    decomposition_poly,
    decomposition_quadratics,
    decomposition_terms,
    grid_sign_scan,
    reduction_identity_residual,
    sign_certificate,
)
from .chebpoly import ChebSeries, clenshaw_eval, differentiate, eval_T, eval_U, u_to_t
from .errors import DomainError
from .expseries import (
    Enclosure,
    cheb_sandwich,
    endpoint_gap,
    exp_cheb_coefficients,
    partial_sum,
    sup_error_comparison,
    taylor_eval,
    taylor_sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChebSeries",
    "DomainError",
    "Enclosure",
    "Interval",
    "QuadraticInE",
    "bessel_i",
    "bessel_i_enclosure",
    "bessel_ratio_bound",
    "build_G_closed_form",
    "build_G_via_reduction",
    "cheb_sandwich",
    "clenshaw_eval",
    "decomposition_check",
    "decomposition_poly",
    "decomposition_quadratics",
    "decomposition_terms",
    "differentiate",
    "endpoint_gap",
    "eval_T",
    "eval_U",
    "exp_cheb_coefficients",
    "grid_sign_scan",
    "partial_sum",
    "recurrence_residual",
    "reduction_identity_residual",
    "sign_certificate",
    "sup_error_comparison",
    "taylor_eval",
    "taylor_sandwich",
    "u_to_t",
]
