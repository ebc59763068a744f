"""The one rule for degrees, orders and counts: an integer at or above a bound."""

import subprocess
import sys

import numpy as np
import pytest

import chebbound as cb
from chebbound import DomainError

# each function as a call on its degree (or count), with the least it accepts
CALLS = {
    "eval_T": (lambda n: cb.eval_T(n, -2.0), 0),
    "eval_U": (lambda n: cb.eval_U(n, -2.0), -1),
    "u_to_t": (cb.u_to_t, 0),
    "taylor_eval": (lambda n: cb.taylor_eval(n, -1.0), 0),
    "taylor_sandwich": (lambda n: cb.taylor_sandwich(n, -2.0), 1),
    "cheb_sandwich": (lambda n: cb.cheb_sandwich(n, -3.0), 1),
    "endpoint_gap": (cb.endpoint_gap, 0),
    "sup_error_comparison n": (lambda n: cb.sup_error_comparison(n, 100), 0),
    "sup_error_comparison grid_points": (lambda n: cb.sup_error_comparison(3, n), 100),
    "exp_cheb_coefficients": (cb.exp_cheb_coefficients, 0),
    "partial_sum": (cb.partial_sum, 0),
    "bessel_i": (lambda n: cb.bessel_i(n, 1.0), 0),
    "sign_certificate": (cb.sign_certificate, 1),
    "grid_sign_scan points": (lambda n: cb.grid_sign_scan(2, -100.0, n), 10),
    "build_G_via_reduction": (cb.build_G_via_reduction, 0),
    "build_G_closed_form": (cb.build_G_closed_form, 0),
    "decomposition_poly": (cb.decomposition_poly, 1),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_degree_is_an_integer_at_or_above_its_least(name):
    call, least = CALLS[name]
    np.testing.assert_equal(call(np.int64(least + 2)), call(least + 2))
    # an integral float above the bound, a fraction, a string, None and one
    # below; the float equals the numpy integer above, which a cache keyed
    # by value alone would hand back
    for n in (float(least + 2), least + 0.5, str(least + 2), None, least - 1):
        with pytest.raises(DomainError, match="integer") as info:
            call(n)
        assert repr(n) in str(info.value)


@pytest.mark.parametrize("int_type", (np.int64, np.int32))
@pytest.mark.parametrize(
    "build", (cb.partial_sum, cb.build_G_via_reduction, cb.build_G_closed_form, cb.decomposition_poly)
)
def test_a_numpy_integer_degree_shares_the_cached_series(build, int_type):
    # one series per degree: a numpy integer gets the object of the equal
    # int, whichever is asked first
    assert build(int_type(9)) is build(9)
    assert build(11) is build(int_type(11))
    # the caches stay typed, so the equal float is still refused
    with pytest.raises(DomainError, match="integer"):
        build(9.0)


def test_the_rule_loads_no_numpy():
    script = """
import sys
import chebbound as cb
sys.modules["numpy"] = None  # any later import of numpy raises ImportError
for call in (lambda: cb.eval_T(2.5, -2.0), lambda: cb.taylor_eval(2.0, -1.0),
             lambda: cb.cheb_sandwich(2.5, -3.0)):
    try:
        call()
    except cb.DomainError:
        pass
    else:
        raise AssertionError("accepted a non-integer degree")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
