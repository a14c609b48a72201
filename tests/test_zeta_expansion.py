"""Zeta-side coefficient triangle and series evaluation."""

import math
from fractions import Fraction
from math import factorial

import pytest

from gammazeta import (
    DomainError,
    TruncatedSeries,
    eta_ref,
    gamma_ref,
    partial_bell,
    series_pow,
)
from gammazeta import zeta_expansion as ze

# the printed triangle of b[alpha,beta] through row 8 (ragged widths)
TRIANGLE_THROUGH_ROW_8 = [
    [1, 0],
    [0, 0],
    [0, 2, 0],
    [0, 0, 0],
    [0, 24, 40, 0],
    [0, 0, 0, 0],
    [0, 720, 2688, 2240, 0],
    [0, 0, 0, 0, 0],
    [0, 40320, 245376, 443520, 246400, 0],
]


def zeta_sequence(length):
    # 0, 2!/3, 0, 4!/5, ...
    return [
        Fraction(factorial(m), m + 1) if m % 2 == 0 else Fraction(0)
        for m in range(1, length + 1)
    ]


class TestCoefficientTriangle:
    def test_reproduces_printed_table(self):
        assert ze.coeff_table(8) == TRIANGLE_THROUGH_ROW_8

    def test_direct_route_examples(self):
        assert ze.coeff_direct(2, 1) == 2
        assert ze.coeff_direct(4, 2) == 40
        assert ze.coeff_direct(6, 3) == 2240
        assert ze.coeff_direct(8, 4) == 246400

    def test_odd_rows_vanish(self):
        for beta in range(5):
            assert ze.coeff_direct(3, beta) == 0
            assert ze.coeff(7, beta) == 0

    def test_routes_agree_through_row_20(self):
        for a in range(21):
            for b in range(a // 2 + 2):
                assert ze.coeff_direct(a, b) == ze.coeff(a, b)

    def test_first_column_is_even_factorial(self):
        for n in range(1, 9):
            assert ze.coeff(2 * n, 1) == factorial(2 * n)

    def test_vanishes_beyond_half_row(self):
        for n in range(1, 11):
            for k in range(n + 1, n + 4):
                assert ze.coeff(2 * n, k) == 0


class TestBellValues:
    def test_matches_generic_bell_oracle(self):
        xs = zeta_sequence(11)
        for a in range(1, 11):
            for b in range(1, a + 1):
                assert ze.log_ratio_bell_value(a, b) == partial_bell(a, b, xs)


class TestLogRatioCoeffs:
    def test_low_order_closed_forms(self):
        for r in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
            coeffs = ze.log_ratio_coeffs(r, 3).coeffs
            assert coeffs[0] == 1
            assert coeffs[1] == Fraction(2, 6) * r
            assert coeffs[2] == Fraction(24, 120) * r + Fraction(40, 720) * r * (r - 1)
            assert coeffs[3] == (
                Fraction(720, factorial(7)) * r
                + Fraction(2688, factorial(8)) * r * (r - 1)
                + Fraction(2240, factorial(9)) * r * (r - 1) * (r - 2)
            )

    def test_order_five_matches_series_square(self):
        inner = TruncatedSeries(
            [Fraction(1)] + [Fraction(1, 2 * m + 3) for m in range(5)]
        )
        assert tuple(ze.log_ratio_coeffs(2, 5).coeffs) == series_pow(inner, 2).coeffs

    def test_complex_argument_close_to_exact(self):
        exact = ze.log_ratio_coeffs(Fraction(3, 4), 6).coeffs
        inexact = ze.log_ratio_coeffs(complex(0.75, 1e-30), 6).coeffs
        for c1, c2 in zip(exact, inexact):
            assert abs(complex(c1) - c2) < 1e-13

    def test_complex_power_beyond_the_float_range_raises(self):
        with pytest.raises(OverflowError, match="beyond the float range"):
            ze.log_ratio_coeffs(1e300 + 1e300j, 3)


class TestExpansion:
    def test_leading_term_only(self):
        for s in (0.5, 2.0):
            (term,) = ze.expansion_terms(s, 1)
            assert term == pytest.approx(2 ** (s - 1) / s / (s + 1), rel=1e-15)

    def test_s_one_converges_to_log_two(self):
        report = ze.evaluate(1.0, 300)
        assert report.reference == pytest.approx(math.log(2), rel=1e-14)
        assert report.rel_error < 2e-3

    def test_s_two_converges_to_pi_squared_over_twelve(self):
        report = ze.evaluate(2.0, 300)
        assert report.reference == pytest.approx(math.pi**2 / 12, rel=1e-13)
        assert report.rel_error < 1e-2

    def test_reference_is_eta_times_gamma(self):
        assert ze.reference_value(0.75) == eta_ref(0.75) * gamma_ref(0.75)

    def test_paths_identical_for_rational_s(self):
        for s in (0.75, 1.0, 2.0):
            assert ze.expansion_terms(s, 80, "direct") == ze.expansion_terms(
                s, 80, "recurrence"
            )

    def test_paths_close_for_complex_s(self):
        for s in (2 + 1j, 0.5 + 0.25j):
            direct = ze.partial_sums(s, 40, "direct")
            rec = ze.partial_sums(s, 40, "recurrence")
            for d, r in zip(direct, rec):
                assert abs(d - r) <= 1e-12 * max(1.0, abs(d))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ze.expansion_terms(0.0, 5)
        with pytest.raises(DomainError):
            ze.expansion_terms(-0.5, 5)
        with pytest.raises(DomainError):
            ze.expansion_terms(complex(-1, 3), 5)
        with pytest.raises(ValueError):
            ze.expansion_terms(1.0, 0)

    @pytest.mark.parametrize("path", ["direct", "recurrence"])
    def test_complex_prefactor_beyond_the_float_range_raises(self, path):
        # 2**(s-1)/s overflows for |s| below about 1e-308, as at real s
        with pytest.raises(OverflowError, match="prefactor 2"):
            ze.expansion_terms(5e-324 + 5e-324j, 3, path)

    @pytest.mark.parametrize("path", ["direct", "recurrence"])
    def test_series_power_beyond_the_float_range_raises(self, path):
        # the prefactor is finite, but s**2 in A_2(s) overflows
        with pytest.raises(OverflowError, match="beyond the float range"):
            ze.expansion_terms(0.5 + 1e200j, 3, path)

    def test_inexact_division_guard(self):
        # the direct route re-derives entries as exact Fractions, so the
        # divisibility structure is exercised on every call
        for a in range(0, 13, 2):
            for b in range(a // 2 + 1):
                ze.coeff_direct(a, b)
