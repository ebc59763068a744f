import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import oracles
from chebbound import (
    ChebSeries,
    DomainError,
    bessel_i,
    build_G_closed_form,
    build_G_via_reduction,
    clenshaw_eval,
    decomposition_check,
    decomposition_poly,
    decomposition_quadratics,
    decomposition_terms,
    grid_sign_scan,
    reduction_identity_residual,
    sign_certificate,
)
from chebbound import bessel, certificate

I1_AT_1 = 0.5651591039924851
I2_AT_1 = 0.1357476697670383

DECOMP_T_GRID = (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0)


def _u_in_t_basis(k):
    """T-basis coefficients of U_k from U_k = 2 T_k + U_{k-2}, U_0 = T_0, U_{-1} = 0."""
    c = [0] * (k + 1)
    for j in range(k, 0, -2):
        c[j] = 2
    if k >= 0 and k % 2 == 0:
        c[0] = 1
    return c


class TestBuilders:
    def test_degree_zero_is_constant(self):
        np.testing.assert_allclose(
            build_G_via_reduction(0).coeffs, [1.2660658777520084], rtol=1e-14
        )
        np.testing.assert_allclose(
            build_G_closed_form(0).coeffs, [1.2660658777520084], rtol=1e-14
        )

    def test_degree_one_coefficients(self):
        # the constant term equals I_2(1) because I_0 - 2 I_1 = I_2 at x = 1
        np.testing.assert_allclose(
            build_G_via_reduction(1).coeffs, [I2_AT_1, 2 * I1_AT_1], rtol=1e-13
        )
        np.testing.assert_allclose(
            build_G_closed_form(1).coeffs, [I2_AT_1, 2 * I1_AT_1], rtol=1e-13
        )

    def test_degree_two_pointwise_cross_check(self):
        red = build_G_via_reduction(2)
        closed = build_G_closed_form(2)
        for x in (-1.1, -2.0, -5.0):
            assert clenshaw_eval(red, x) == pytest.approx(
                clenshaw_eval(closed, x), rel=1e-13
            )

    def test_degree_two_monomial_form(self):
        # 4 I_2 x^2 + 2 I_3 x - I_2
        g = build_G_closed_form(2)
        i3 = bessel_i(3, 1.0)
        for x in (-1.5, 0.3, 2.0):
            expected = 4 * I2_AT_1 * x * x + 2 * i3 * x - I2_AT_1
            assert clenshaw_eval(g, x) == pytest.approx(expected, rel=1e-12)

    def test_odd_degree_negative_below_minus_one(self):
        assert clenshaw_eval(build_G_closed_form(1), -2.0) < 0.0

    @pytest.mark.parametrize("n", range(0, 151))
    def test_cross_construction_coefficients(self, n):
        # both routes round the same exact coefficients once, so they agree bit for bit
        assert build_G_via_reduction(n).coeffs.tolist() == build_G_closed_form(n).coeffs.tolist()

    @pytest.mark.parametrize("n", (1, 2, 7, 16, 32))
    def test_cross_construction_pointwise(self, n):
        xs = np.linspace(-10.0, 10.0, 41)
        rv = clenshaw_eval(build_G_via_reduction(n), xs)
        cv = clenshaw_eval(build_G_closed_form(n), xs)
        scale = np.maximum(1.0, np.abs(cv))
        assert np.all(np.abs(rv - cv) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 16, 31, 32, 33, 63, 64, 65, 75, 76, 100, 127, 128))
    @pytest.mark.parametrize("build", (build_G_via_reduction, build_G_closed_form))
    def test_coefficients_are_correctly_rounded(self, build, n):
        # float() of I_n U_n + I_{n+1} U_{n-1} at 80 digits; for n = 0 that is I_0(1)
        un, unm1 = _u_in_t_basis(n), _u_in_t_basis(n - 1) + [0]
        with mp.workdps(oracles.DPS):
            i_n, i_np1 = oracles.mp_bessel_i(n, 1), oracles.mp_bessel_i(n + 1, 1)
            expected = [float(i_n * un[j] + i_np1 * unm1[j]) for j in range(n + 1)]
        assert build(n).coeffs.tolist() == expected

    @pytest.mark.parametrize("build", (build_G_via_reduction, build_G_closed_form))
    def test_coefficients_locked_bit_for_bit(self, build):
        # every coefficient of G_1..G_64, the range `certify --range 1..64` prints
        digest = hashlib.sha256()
        for n in range(1, 65):
            digest.update(build(n).coeffs.tobytes())
        assert digest.hexdigest() == "4c24e040a934ab9f587091439b82ae6fa39cbbbffbf5a4d1f29150e8cca08623"

    @pytest.mark.parametrize(
        "build, first, expected",
        (
            (build_G_via_reduction, 0, "cc3b224ff2dbaf87b777e8d5e0f9cadbc574d9dba4c53b4edc5612d962426158"),
            (build_G_closed_form, 0, "cc3b224ff2dbaf87b777e8d5e0f9cadbc574d9dba4c53b4edc5612d962426158"),
            (decomposition_poly, 1, "0f0b179000639d5e32cde614b9a317c70fd96e5bc362e86bb15e90e8c5867814"),
        ),
    )
    def test_every_normal_degree_locked_bit_for_bit(self, build, first, expected):
        # every degree up to 149, where a_150 is the last normal coefficient
        digest = hashlib.sha256()
        for n in range(first, 150):
            digest.update(build(n).coeffs.tobytes())
        assert digest.hexdigest() == expected

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            build_G_via_reduction(-1)
        with pytest.raises(DomainError):
            build_G_closed_form(-1)

    @pytest.mark.parametrize("n", (2.0, 2.5, "2", None))
    @pytest.mark.parametrize("build", (build_G_via_reduction, build_G_closed_form, decomposition_poly))
    def test_rejects_a_non_integer_degree(self, build, n):
        # the rule bessel_i applies to its order: a numbers.Integral, so 2.0 is refused
        with pytest.raises(DomainError, match="integer"):
            build(n)

    @pytest.mark.parametrize("build", (build_G_via_reduction, build_G_closed_form, decomposition_poly))
    def test_accepts_a_numpy_integer_degree(self, build):
        assert build(np.int64(5)).values == build(5).values

    def test_the_reduction_route_reads_the_table_and_sums_nothing(self, monkeypatch):
        calls = []
        real = bessel.series_sum

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bessel, "series_sum", counted)
        monkeypatch.setattr(certificate, "series_sum", counted)
        for n in (0, 1, 64, 150):
            assert build_G_via_reduction.__wrapped__(n).values == build_G_via_reduction(n).values
        assert calls == []


# past a_150, the last normal coefficient, the table under the reduction
# route ends; G_157 once rounded to all zeros and its scan read False, and
# decomposition_check(157, 0.5) divided by zero
@pytest.mark.parametrize("n", (151, 157))
@pytest.mark.parametrize(
    "call",
    (
        build_G_via_reduction,
        build_G_closed_form,
        decomposition_poly,
        decomposition_quadratics,
        lambda n: decomposition_check(n, 0.5),
        lambda n: decomposition_terms(n, 0.5),
        lambda n: grid_sign_scan(n, -2.0, 10),
    ),
)
def test_past_the_last_normal_coefficient_is_a_domain_error(call, n):
    with pytest.raises(DomainError, match=f"a_{n} is below the smallest normal float; the last above it is a_150$"):
        call(n)


class TestReductionIdentity:
    def test_low_degree(self):
        assert reduction_identity_residual(1, -2.0) <= 1e-13

    def test_near_edge(self):
        assert reduction_identity_residual(4, -1.01) <= 1e-12

    def test_degree_zero_trivial(self):
        assert reduction_identity_residual(0, 3.0) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 33))
    def test_residual_over_wide_interval(self, n):
        for x in np.linspace(-10.0, 10.0, 50):
            assert reduction_identity_residual(n, float(x)) <= 1e-12


class TestDecomposition:
    def test_example_n2(self):
        assert decomposition_check(2, 0.5) <= 1e-10

    def test_example_n1(self):
        assert decomposition_check(1, 2.0) <= 1e-10
        assert sum(decomposition_terms(1, 2.0)) > 0.0

    def test_small_t_limit(self):
        assert decomposition_check(3, 1e-3) <= 1e-8

    @pytest.mark.parametrize("n", range(1, 17))
    def test_identity_and_positivity_on_grid(self, n):
        for t in DECOMP_T_GRID:
            if (n + 1) * t > 40.0:
                continue
            assert decomposition_check(n, t) <= 1e-9
            assert all(term >= 0.0 for term in decomposition_terms(n, t))

    def test_refuses_tiny_t(self):
        with pytest.raises(DomainError):
            decomposition_check(2, 1e-7)

    def test_refuses_nonpositive_t(self):
        with pytest.raises(DomainError):
            decomposition_check(2, 0.0)

    def test_overflow_signal(self):
        # e^{(2n+3)t} past the float range is a refused argument, like any other
        with pytest.raises(DomainError):
            decomposition_check(100, 4.0)

    def test_rejects_degree_zero(self):
        with pytest.raises(DomainError):
            decomposition_check(0, 1.0)

    @pytest.mark.parametrize(
        "call",
        (
            lambda: decomposition_quadratics(2.0),
            lambda: decomposition_terms(2.5, 1.0),
            lambda: decomposition_check(3.0, 1.0),
            lambda: reduction_identity_residual(2.0, -2.0),
        ),
    )
    def test_rejects_a_non_integer_degree(self, call):
        with pytest.raises(DomainError, match="integer"):
            call()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_quadratics_positive_beyond_one(self, n):
        # with the computed ratio, each quadratic has negative discriminant
        # or a double root at u = +-1, so it cannot dip below 0 for u > 1
        for q in decomposition_quadratics(n):
            disc = q.a1 * q.a1 - 4.0 * q.a2 * q.a0
            assert disc <= 1e-15
            for u in (1.0 + 1e-9, 2.0, 50.0):
                assert q(u) >= 0.0

    def test_middle_quadratics_are_perfect_squares(self):
        # for n >= 2 the b = c choice turns the k = n, n-1 quadratics into
        # (u - (-1)^n)^2
        for n in (2, 3, 8):
            _, _, q_c, q_d, _ = decomposition_quadratics(n)
            for q in (q_c, q_d):
                assert q.a1 == pytest.approx(-2.0 * (-1) ** n, rel=1e-15)
                assert (q.a2, q.a0) == (1.0, 1.0)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 16, 17, 51, 63, 64, 99, 149))
    def test_variant_poly_is_correctly_rounded(self, n):
        # float() of I_{n+1} U_{n-1} + I_n U_{n-2} - I_n + I_n T_n at 80 digits
        unm1, unm2 = _u_in_t_basis(n - 1) + [0], _u_in_t_basis(n - 2) + [0, 0]
        with mp.workdps(oracles.DPS):
            i_n, i_np1 = oracles.mp_bessel_i(n, 1), oracles.mp_bessel_i(n + 1, 1)
            exact = [i_np1 * unm1[j] + i_n * unm2[j] for j in range(n + 1)]
            exact[0] -= i_n
            exact[n] += i_n
            expected = [float(v) for v in exact]
        assert decomposition_poly(n).coeffs.tolist() == expected

    @pytest.mark.parametrize("n", (1, 4, 6, 9, 10, 15, 16, 32, 64, 149))
    def test_quadratics_use_the_correctly_rounded_ratio(self, n):
        with mp.workdps(oracles.DPS):
            r = float(oracles.mp_bessel_i(n + 1, 1) / oracles.mp_bessel_i(n, 1))
        assert decomposition_quadratics(n)[0].a1 == -2.0 * r

    def test_the_bessel_integers_are_summed_once_per_degree(self, monkeypatch):
        first = decomposition_check(32, 1.0), decomposition_quadratics(32)
        calls = []
        real = bessel.series_sum

        def counted(*args):
            calls.append(args)
            return real(*args)

        # certificate holds its own name for series_sum; wrap both
        monkeypatch.setattr(bessel, "series_sum", counted)
        monkeypatch.setattr(certificate, "series_sum", counted)
        again = decomposition_check(32, 1.0), decomposition_quadratics(32)
        assert calls == []
        assert again == first
        assert certificate._closed_form_ints(32) == certificate._closed_form_ints.__wrapped__(32)

    def test_variant_poly_offset_from_reduction(self):
        # the split-friendly variant differs from the reduction polynomial by
        # exactly I_n(1) (1 + T_n)
        for n in (1, 2, 5, 8):
            diff = build_G_via_reduction(n).coeffs - decomposition_poly(n).coeffs
            i_n = bessel_i(n, 1.0)
            expected = np.zeros(n + 1)
            expected[0] = i_n
            expected[n] = i_n
            np.testing.assert_allclose(diff, expected, rtol=1e-12, atol=1e-15)


class TestSignCertificate:
    def test_degree_one_values(self):
        cert = sign_certificate(1)
        assert cert.ratio_bound == Fraction(2, 5)
        assert cert.cond_unit_quadratic
        assert cert.cond_shifted_quadratic
        assert cert.cond_leading_positive
        assert cert.verdict == "accepted"

    def test_degree_twenty(self):
        cert = sign_certificate(20)
        assert cert.ratio_bound == Fraction(4, 105)
        assert cert.verdict == "accepted"

    def test_degree_zero_rejected_at_the_door(self):
        with pytest.raises(DomainError):
            sign_certificate(0)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_completeness(self, n):
        assert sign_certificate(n).verdict == "accepted"

    @pytest.mark.parametrize("first", range(1, 2001, 200))
    def test_the_integer_checks_match_the_rational_inequalities(self, first):
        for n in range(first, first + 200):
            cert = sign_certificate(n)
            rb = Fraction(4, 5 * (n + 1))
            assert cert.ratio_bound == rb
            assert cert.cond_unit_quadratic is (4 * rb * rb - 4 < 0)
            assert cert.cond_shifted_quadratic is (4 * rb * rb - 4 * (1 - 2 * rb) < 0)
            assert cert.cond_leading_positive is (1 - 2 * rb > 0)

    @pytest.mark.parametrize(
        "rb, failing",
        (
            (Fraction(1), ("unit", "shifted", "leading")),
            (Fraction(1, 2), ("shifted", "leading")),
            (Fraction(9, 20), ("shifted",)),
            # the shifted condition holds exactly for rb < sqrt(2) - 1
            (Fraction(41421, 100000), ()),
            (Fraction(41422, 100000), ("shifted",)),
        ),
    )
    def test_a_larger_ratio_bound_fails_its_conditions(self, monkeypatch, rb, failing):
        monkeypatch.setattr(certificate, "bessel_ratio_bound", lambda n, x, specialize=False: rb)
        cert = sign_certificate(5)
        conds = {
            "unit": cert.cond_unit_quadratic,
            "shifted": cert.cond_shifted_quadratic,
            "leading": cert.cond_leading_positive,
        }
        assert all(type(v) is bool for v in conds.values())
        assert sorted(k for k, v in conds.items() if not v) == sorted(failing)
        assert cert.ratio_bound is rb
        assert cert.verdict == ("rejected" if failing else "accepted")

    def test_json_schema(self):
        payload = sign_certificate(3).to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert sorted(payload) == ["conditions", "n", "ratio_bound", "verdict"]
        assert payload["ratio_bound"] == {"num": 4, "den": 20}
        assert sorted(payload["conditions"]) == [
            "leading_positive",
            "shifted_quadratic",
            "unit_quadratic",
        ]
        assert payload["verdict"] == "accepted"


class TestGridSignScan:
    def test_even_degree(self):
        assert grid_sign_scan(2, -100.0, 500) is True

    def test_odd_degree(self):
        assert grid_sign_scan(1, -100.0, 500) is True

    @pytest.mark.parametrize("n", (*range(1, 17), 134))
    def test_sign_law_wide_grid(self, n):
        assert grid_sign_scan(n, -1e4, 500) is True

    @pytest.mark.parametrize("n", (135, 139))
    def test_values_past_the_float_range_are_a_domain_error(self, n):
        # from n = 135 G_n(-1e4) overflows to +-inf, and from n = 139 the
        # Clenshaw steps meet inf - inf; neither may pass for a sign, and no
        # numpy warning may escape
        with pytest.raises(DomainError, match="float range"):
            grid_sign_scan(n, -1e4, 500)

    def test_validation(self):
        with pytest.raises(DomainError):
            grid_sign_scan(0, -100.0, 500)
        with pytest.raises(DomainError):
            grid_sign_scan(2, -0.5, 500)
        with pytest.raises(DomainError):
            grid_sign_scan(2, -100.0, 5)

    @pytest.mark.parametrize("n, points", ((2.0, 500), (2.5, 500), (2, 500.0), (2, "500")))
    def test_a_non_integer_degree_or_point_count_is_a_domain_error(self, n, points):
        with pytest.raises(DomainError, match="integer"):
            grid_sign_scan(n, -100.0, points)

    def test_the_grid_is_built_once_and_read_only(self):
        certificate._scan_grid.cache_clear()
        for n in (1, 2, 3):
            assert grid_sign_scan(n, -50.0, 200) is True
        info = certificate._scan_grid.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert not certificate._scan_grid(-50.0, 200).flags.writeable

    def test_a_grid_longer_than_a_kernel_block(self):
        # the blocked kernels read the shared grid and write only their own buffers
        assert grid_sign_scan(5, -100.0, 2 * 32768 + 1) is True

    @pytest.mark.parametrize("n", (2, 3))
    def test_a_series_that_crosses_zero_fails(self, monkeypatch, n):
        # (-1)^n (x + 5) changes sign at -5
        s = (-1) ** n
        monkeypatch.setattr(certificate, "build_G_via_reduction", lambda k: ChebSeries([5.0 * s, 1.0 * s]))
        assert grid_sign_scan(n, -100.0, 500) is False

    @pytest.mark.parametrize("zero", (0.0, -0.0))
    @pytest.mark.parametrize("n", (2, 3))
    def test_a_series_that_is_zero_at_a_grid_point_fails(self, monkeypatch, n, zero):
        # (-1)^n (x + 100)(4x^2 - 2) keeps the sign law on (-100, -1) and is
        # zero at the first grid point, x = -100, with the sign bit of its
        # constant coefficient there
        s = (-1) ** n
        series = ChebSeries([zero, 1.0 * s, 200.0 * s, 1.0 * s])
        assert certificate._scan_grid(-100.0, 500)[0] == -100.0
        at_left = clenshaw_eval(series, -100.0)
        assert at_left == 0.0 and math.copysign(1.0, at_left) == math.copysign(1.0, zero)
        assert s * clenshaw_eval(series, -99.0) > 0.0 and s * clenshaw_eval(series, -1.5) > 0.0
        monkeypatch.setattr(certificate, "build_G_via_reduction", lambda k: series)
        assert grid_sign_scan(n, -100.0, 500) is False

    @pytest.mark.parametrize(
        "coeffs, value",
        (
            ([0.0, 0.0, 1e305], math.inf),
            ([0.0, 0.0, -1e305], -math.inf),
            # the last Clenshaw step meets inf - inf
            ([0.0, 0.0, 0.0, 1e307], math.nan),
        ),
    )
    @pytest.mark.parametrize("n", (2, 3))
    def test_a_series_past_the_float_range_is_a_domain_error(self, monkeypatch, n, coeffs, value):
        # nonfinite at the left end of the grid only, finite near -1
        series = ChebSeries(coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            at_left = clenshaw_eval(series, -100.0)
        assert at_left == value or (math.isnan(value) and math.isnan(at_left))
        assert math.isfinite(clenshaw_eval(series, -1.5))
        monkeypatch.setattr(certificate, "build_G_via_reduction", lambda k: series)
        with pytest.raises(DomainError, match="float range"):
            grid_sign_scan(n, -100.0, 500)

    @pytest.mark.parametrize("x_min", (-math.inf, math.nan))
    def test_a_non_finite_left_end_is_a_domain_error(self, x_min):
        # -inf once passed, and the scan of its nan grid reported a sign failure
        with pytest.raises(DomainError, match="finite"):
            grid_sign_scan(3, x_min, 20)


def test_transformed_sign_is_simple_for_reduction_polynomial():
    # (-1)^n G_n(-cosh t) sinh t = I_n sinh((n+1)t) - I_{n+1} sinh(n t),
    # manifestly positive since I_{n+1} < I_n; spot-check the identity
    for n in (1, 2, 5):
        g = build_G_via_reduction(n)
        for t in (0.3, 1.0, 2.5):
            lhs = (-1) ** n * clenshaw_eval(g, -math.cosh(t)) * math.sinh(t)
            rhs = bessel_i(n, 1.0) * math.sinh((n + 1) * t) - bessel_i(
                n + 1, 1.0
            ) * math.sinh(n * t)
            assert lhs == pytest.approx(rhs, rel=1e-11)
            assert lhs > 0.0
