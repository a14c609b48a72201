"""Derivative polynomials: closed forms, Riccati chain, roots, interlacing."""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammazeta import (
    DefectError,
    GaussianRational,
    Polynomial,
    derivative_polynomial,
    derivative_polynomials as dpoly,
    interlacing_check,
    reduced_polynomial,
    riccati_derivative,
    roots_in_unit_interval,
    verify,
)
from gammazeta.derivative_polynomials import BRACKET_WIDTH

RICCATI_CASES = (
    (1, 0, 1),  # logistic decay: x' = x^2 - x
    (1, GaussianRational(0, 1), GaussianRational(0, -1)),  # tan: x' = x^2 + 1
    (-1, 1, -1),  # tanh: x' = 1 - x^2
)


class TestClosedForms:
    def test_frozen_low_degrees(self):
        assert derivative_polynomial(2) == Polynomial((0, -1, 1))  # x^2 - x
        # expanding E(2,0) x (x-1)^2 + E(2,1) x^2 (x-1) by hand: 2x^3 - 3x^2 + x
        assert derivative_polynomial(3) == Polynomial((0, 1, -3, 2))

    def test_stirling_form_degree_four(self):
        # sum_k (-1)^(4-k) (k-1)! S2(4,k) x^k = -x + 6x^2*... frozen by hand:
        # k=1: -1*1*1, k=2: +1*7, k=3: -2*6, k=4: +6*1
        assert derivative_polynomial(4) == Polynomial((0, -1, 7, -12, 6))

    def test_forms_agree_through_degree_20(self):
        for n in range(2, 21):
            derivative_polynomial(n)  # raises DefectError on any mismatch

    def test_divisibility_and_quotient_through_20(self):
        for n in range(2, 21):
            q = derivative_polynomial(n)
            p = reduced_polynomial(n - 2)
            assert Polynomial((0, 1)) * Polynomial.x_minus(1) * p == q

    def test_reduced_frozen(self):
        assert reduced_polynomial(0) == Polynomial((1,))
        assert reduced_polynomial(1) == Polynomial((-1, 2))  # 2x - 1
        # P_2 = (x-1)^2 + 4x(x-1) + x^2 = 6x^2 - 6x + 1
        assert reduced_polynomial(2) == Polynomial((1, -6, 6))


class TestRiccati:
    def test_first_derivative_is_the_equation(self):
        assert riccati_derivative(1, 1, 0, 1) == Polynomial((0, -1, 1))
        assert riccati_derivative(1, -1, 1, -1) == Polynomial((1, 0, -1))

    def test_tangent_second_derivative(self):
        # symbolic chain rule on x' = x^2 + 1 twice: x'' = 2x(x^2+1) = 2x^3+2x
        i = GaussianRational(0, 1)
        assert riccati_derivative(2, 1, i, -i) == Polynomial((0, 2, 0, 2))

    def test_specializes_to_derivative_polynomials(self):
        for n in range(1, 13):
            assert riccati_derivative(n, 1, 0, 1) == derivative_polynomial(n + 1)

    def test_chain_property_three_equations(self):
        for a, alpha, beta in RICCATI_CASES:
            rhs = (Polynomial((-alpha, 1)) * Polynomial((-beta, 1))).scale(a)
            current = riccati_derivative(1, a, alpha, beta)
            for n in range(1, 13):
                nxt = riccati_derivative(n + 1, a, alpha, beta)
                assert nxt == current.derivative() * rhs
                current = nxt

    def test_fractional_coefficients_stay_exact(self):
        p = riccati_derivative(3, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
        assert all(isinstance(c, Fraction) for c in p.coeffs)

    def test_rejects_degenerate_leading_coefficient(self):
        with pytest.raises(ValueError):
            riccati_derivative(2, 0, 0, 1)
        with pytest.raises(ValueError):
            riccati_derivative(0, 1, 0, 1)


class TestRoots:
    def test_single_root_of_degree_one(self):
        (bracket,) = roots_in_unit_interval(reduced_polynomial(1))
        lo, hi = bracket
        assert lo == hi == Fraction(1, 2)

    def test_degree_two_roots_match_quadratic_formula(self):
        # 6x^2 - 6x + 1 has roots 1/2 +- 1/(2 sqrt 3)
        roots = roots_in_unit_interval(reduced_polynomial(2))
        expected = (0.21132486540518713, 0.7886751345948129)
        assert len(roots) == 2
        for (lo, hi), value in zip(roots, expected):
            assert float(lo) <= value <= float(hi) or abs(float(lo) - value) < 1e-12

    def test_bracket_widths(self):
        for lo, hi in roots_in_unit_interval(reduced_polynomial(8)):
            assert hi - lo <= Fraction(1, 10**12)
            assert 0 < lo and hi < 1

    def test_counts_through_degree_12(self):
        for n in range(1, 13):
            assert len(roots_in_unit_interval(reduced_polynomial(n))) == n

    def test_rootless_polynomial_is_a_defect(self):
        with pytest.raises(DefectError):
            roots_in_unit_interval(Polynomial((1, 0, 1)))  # x^2 + 1

    def test_zero_polynomial_is_rejected(self):
        with pytest.raises(ValueError):
            roots_in_unit_interval(Polynomial(()))

    @pytest.mark.parametrize("n", [20, 25, 30])
    def test_high_degrees(self, n):
        p = reduced_polynomial(n)
        roots = roots_in_unit_interval(p)
        assert len(roots) == n
        for lo, hi in roots:
            assert 0 <= hi - lo <= BRACKET_WIDTH
            assert p(lo) * p(hi) <= 0
        for (lo, hi), (mirror_lo, mirror_hi) in zip(roots, reversed(roots)):
            assert (lo, hi) == (1 - mirror_hi, 1 - mirror_lo)

    def test_symmetry_of_even_degree_roots(self):
        # the root set of each reduced polynomial is symmetric about 1/2
        roots = roots_in_unit_interval(reduced_polynomial(4))
        mids = [(lo + hi) / 2 for lo, hi in roots]
        for left, right in zip(mids, reversed(mids)):
            assert abs(float(left + right) - 1.0) < 1e-11


# roots in (0,1): a random numerator over a random denominator, or over 2**k
_RANDOM_ROOT = st.integers(2, 10**15).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b)))
_DYADIC_ROOT = st.integers(1, 45).flatmap(
    lambda k: st.integers(1, 2**k - 1).map(lambda c: Fraction(c, 2**k)))
_CELL = Fraction(1, 2**40)  # the bracket width: 2**-40 <= 1e-12 < 2**-39


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_RANDOM_ROOT, _DYADIC_ROOT), min_size=1, max_size=6))
def test_products_of_linear_factors_get_one_bracket_per_root(roots):
    # each root, known in advance, must land in the level-40 dyadic cell
    # that holds it, or be returned exactly when it is such a cell's end
    roots = sorted(roots)
    assume(all(b - a > 2 * _CELL for a, b in zip(roots, roots[1:])))
    p = Polynomial.one()
    for r in roots:
        p = p * Polynomial((-r.numerator, r.denominator))
    expected = []
    for r in roots:
        lo = floor(r / _CELL) * _CELL
        expected.append((r, r) if lo == r else (lo, lo + _CELL))
    assert roots_in_unit_interval(p) == expected


class TestInterlacing:
    def test_degenerate_case(self):
        assert interlacing_check(0) is True

    def test_explicit_degree_one(self):
        # root of 2x-1 must lie between the two roots of 6x^2-6x+1
        assert interlacing_check(1) is True

    def test_through_degree_12(self):
        for n in range(13):
            assert interlacing_check(n) is True

    @pytest.mark.parametrize("n", [19, 24])
    def test_high_degrees(self, n):
        assert interlacing_check(n) is True

    def test_brackets_are_those_of_the_isolation(self):
        for n in (1, 5, 13):
            assert dpoly.reduced_brackets(n) == tuple(
                roots_in_unit_interval(reduced_polynomial(n)))

    def test_poly_suite_isolates_each_reduced_polynomial_once(self, monkeypatch):
        # root_counts reads P_1..P_12 and interlacing P_1..P_13, each
        # isolated once
        calls = []

        def counted(p):
            calls.append(p.degree)
            return roots_in_unit_interval(p)

        dpoly.reduced_brackets.cache_clear()
        monkeypatch.setattr(dpoly, "roots_in_unit_interval", counted)
        results = verify.run_suite("poly", 12)
        assert sorted(calls) == list(range(1, 14))
        assert results == [verify.CheckResult("poly", name, True, None)
                           for name, _ in verify.SUITES["poly"]]
