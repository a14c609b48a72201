"""Gamma-side coefficient triangle and series evaluation."""

import math
from fractions import Fraction
from math import factorial

import pytest

from gammazeta import (
    DomainError,
    TruncatedSeries,
    double_factorial_odd,
    gamma_ref,
    partial_bell,
    series_pow,
)
from gammazeta import factorial_series as fs
from gammazeta import gamma_expansion as ge

# the printed triangle of c[a,b] through row 5
TRIANGLE_THROUGH_ROW_5 = [
    [1],
    [0, 1],
    [0, 2, 3],
    [0, 6, 20, 15],
    [0, 24, 130, 210, 105],
    [0, 120, 924, 2380, 2520, 945],
]


def gamma_sequence(length):
    return [Fraction(factorial(m), m + 1) for m in range(1, length + 1)]


class TestCoefficientTriangle:
    def test_reproduces_printed_table(self):
        assert ge.coeff_table(5) == TRIANGLE_THROUGH_ROW_5

    def test_direct_route_examples(self):
        assert ge.coeff_direct(2, 1) == 2
        assert ge.coeff_direct(3, 2) == 20
        assert ge.coeff_direct(5, 5) == 945
        assert all(ge.coeff_direct(a, 0) == 0 for a in range(1, 8))

    def test_routes_agree_through_row_24(self):
        for a in range(25):
            for b in range(a + 2):
                assert ge.coeff_direct(a, b) == ge.coeff(a, b)

    def test_diagonal_is_odd_double_factorial(self):
        for a in range(13):
            assert ge.coeff(a, a) == double_factorial_odd(a)

    def test_first_column_is_factorial(self):
        for a in range(1, 13):
            assert ge.coeff(a, 1) == factorial(a)

    def test_vanishes_above_diagonal(self):
        for a in range(10):
            for b in range(a + 1, a + 4):
                assert ge.coeff(a, b) == 0


class TestBellValues:
    def test_frozen_values(self):
        assert ge.log_series_bell_value(2, 2) == Fraction(1, 4)
        assert ge.log_series_bell_value(1, 1) == Fraction(1, 2)

    def test_matches_generic_bell_oracle(self):
        xs = gamma_sequence(11)
        assert ge.log_series_bell_value(5, 3) == partial_bell(5, 3, xs)
        for a in range(1, 11):
            for b in range(1, a + 1):
                assert ge.log_series_bell_value(a, b) == partial_bell(a, b, xs)


class TestIntegrandCoeffs:
    def test_low_order_closed_forms(self):
        for s in (Fraction(1, 3), Fraction(2), Fraction(-1, 2)):
            coeffs = ge.integrand_coeffs(s, 3).coeffs
            assert coeffs[0] == 1
            assert coeffs[1] == s / 2
            assert coeffs[2] == Fraction(2, 6) * s + Fraction(3, 24) * s * (s - 1)
            assert coeffs[3] == (
                Fraction(6, factorial(4)) * s
                + Fraction(20, factorial(5)) * s * (s - 1)
                + Fraction(15, factorial(6)) * s * (s - 1) * (s - 2)
            )

    def test_integer_power_matches_series_cube(self):
        log_series = TruncatedSeries(
            [Fraction(1)] + [Fraction(1, m + 2) for m in range(10)]
        )
        assert tuple(ge.integrand_coeffs(3, 10).coeffs) == series_pow(log_series, 3).coeffs

    def test_order_six_matches_series_square(self):
        log_series = TruncatedSeries(
            [Fraction(1)] + [Fraction(1, m + 2) for m in range(6)]
        )
        assert tuple(ge.integrand_coeffs(2, 6).coeffs) == series_pow(log_series, 2).coeffs

    def test_complex_argument_close_to_exact(self):
        # a vanishing imaginary part routes to the float backend
        exact = ge.integrand_coeffs(Fraction(1, 2), 8).coeffs
        inexact = ge.integrand_coeffs(complex(0.5, 1e-30), 8).coeffs
        for c1, c2 in zip(exact, inexact):
            assert abs(complex(c1) - c2) < 1e-13

    def test_complex_power_beyond_the_float_range_raises(self):
        # A_2(s) ~ s**2/8 is beyond the float range; it was returned as nan+nanj
        with pytest.raises(OverflowError, match="beyond the float range"):
            ge.integrand_coeffs(1e300 + 1e300j, 3)


class TestExpansion:
    def test_s_zero_collapses_to_one(self):
        terms = ge.expansion_terms(0.0, 5)
        assert terms[0] == 1.0
        assert all(t == 0 for t in terms[1:])

    def test_s_one_partial_sums_are_telescoping(self):
        # at s=1 the a-th term is 1/((a+1)(a+2)), so N terms give 1 - 1/(N+1)
        sums = ge.partial_sums(1.0, 50)
        for n in (1, 10, 50):
            assert abs(sums[n - 1] - (1 - 1 / (n + 1))) < 1e-15

    def test_converges_to_gamma_of_two_and_a_half(self):
        target = 1.5 * 0.5 * math.sqrt(math.pi)  # Gamma(2.5)
        report = ge.evaluate(1.5, 300)
        assert report.reference == pytest.approx(target, rel=1e-13)
        assert report.rel_error < 0.02
        assert abs(report.partial_sum - target) == pytest.approx(
            report.abs_error, rel=1e-12
        )

    def test_paths_identical_for_rational_s(self):
        for s in (0.5, 1.5, Fraction(3, 4)):
            assert ge.expansion_terms(s, 80, "direct") == ge.expansion_terms(
                s, 80, "recurrence"
            )

    def test_paths_close_for_complex_s(self):
        for s in (1 + 1j, 2.3 + 0.7j):
            direct = ge.partial_sums(s, 50, "direct")
            rec = ge.partial_sums(s, 50, "recurrence")
            for d, r in zip(direct, rec):
                assert abs(d - r) <= 1e-12 * max(1.0, abs(d))

    def test_float_path_matches_exact_at_moderate_depth(self):
        exact = sum(ge.expansion_terms(0.5, 60, "direct"))
        floats = sum(fs.float_terms(ge.SIDE, complex(0.5), 60))
        assert abs(exact - floats) < 1e-13

    def test_term_magnitudes_recorded(self):
        report = ge.evaluate(0.5, 40)
        assert len(report.term_magnitudes) == 40
        assert report.term_magnitudes[0] == pytest.approx(1 / 1.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ge.expansion_terms(-1.0, 5)
        with pytest.raises(DomainError):
            ge.expansion_terms(-2.5, 5)
        with pytest.raises(DomainError):
            ge.expansion_terms(complex(-1.5, 2.0), 5)
        with pytest.raises(ValueError):
            ge.expansion_terms(0.5, 0)
        with pytest.raises(ValueError):
            ge.expansion_terms(0.5, 5, path="sideways")

    @pytest.mark.parametrize("path", ["direct", "recurrence"])
    def test_series_power_beyond_the_float_range_raises(self, path):
        # A_2(s) has s**2, which overflows; the last term was nan+nanj
        with pytest.raises(OverflowError, match="beyond the float range"):
            ge.expansion_terms(1e300 + 1e300j, 3, path)

    def test_reference_is_lanczos_gamma(self):
        report = ge.evaluate(0.5, 10)
        assert report.reference == gamma_ref(1.5)
