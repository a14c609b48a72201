"""Mittag-Leffler coefficient triangle, polynomials, generating function."""

from fractions import Fraction
from math import factorial

import pytest

from gammazeta import Polynomial
from gammazeta import mittag_leffler as ml

# the printed triangle of a[n,k] through row 7
TRIANGLE_THROUGH_ROW_7 = [
    [1],
    [0, 2],
    [0, 0, 4],
    [0, 4, 0, 8],
    [0, 0, 32, 0, 16],
    [0, 48, 0, 160, 0, 32],
    [0, 0, 736, 0, 640, 0, 64],
    [0, 1440, 0, 6272, 0, 2240, 0, 128],
]


class TestTriangle:
    def test_reproduces_printed_table(self):
        assert ml.coeff_table(7) == TRIANGLE_THROUGH_ROW_7

    def test_telescoped_examples(self):
        assert ml.coeff_telescoped(6, 2) == 736
        assert ml.coeff_telescoped(4, 4) == 16  # boundary term carries it all
        assert ml.coeff_telescoped(9, 3) == ml.coeff(9, 3)

    def test_telescoped_equals_recurrence_through_24(self):
        for n in range(2, 25):
            for k in range(1, n + 1):
                assert ml.coeff_telescoped(n, k) == ml.coeff(n, k)

    def test_parity_structure(self):
        # for k >= 1 the entry vanishes exactly when n-k is odd;
        # column 0 vanishes for every n >= 1
        for n in range(25):
            if n >= 1:
                assert ml.coeff(n, 0) == 0
            for k in range(1, n + 1):
                if (n - k) % 2 == 1:
                    assert ml.coeff(n, k) == 0
                else:
                    assert ml.coeff(n, k) != 0

    def test_diagonal_and_divisibility(self):
        for n in range(25):
            assert ml.coeff(n, n) == 2**n
            for k in range(n + 1):
                assert ml.coeff(n, k) % (2**k) == 0


class TestPolynomials:
    def test_frozen_low_degrees(self):
        assert ml.ml_poly(0) == Polynomial((1,))
        assert ml.ml_poly(1) == Polynomial((0, 2))
        assert ml.ml_poly(2) == Polynomial((0, 0, 4))
        assert ml.ml_poly(3) == Polynomial((0, 4, 0, 8))
        assert ml.ml_poly(5) == Polynomial((0, 48, 0, 160, 0, 32))

    def test_no_constant_term(self):
        for n in range(1, 10):
            assert ml.ml_poly(n)(0) == 0

    def test_recurrence_three_term(self):
        two_x = Polynomial((0, 2))
        for n in range(2, 15):
            lhs = ml.ml_poly(n)
            rhs = ml.ml_poly(n - 2).scale((n - 1) * (n - 2)) + two_x * ml.ml_poly(n - 1)
            assert lhs == rhs

    def test_bateman_normalized_recurrence(self):
        # n g_n = (n-2) g_{n-2} + 2x g_{n-1} with g_n = M_n / n!
        two_x = Polynomial((0, 2))
        for n in range(2, 13):
            gn = ml.ml_poly(n).scale(Fraction(1, factorial(n)))
            gn1 = ml.ml_poly(n - 1).scale(Fraction(1, factorial(n - 1)))
            gn2 = ml.ml_poly(n - 2).scale(Fraction(1, factorial(n - 2)))
            assert gn.scale(n) == gn2.scale(n - 2) + two_x * gn1


class TestGeneratingFunction:
    def test_coefficients_match_polynomials(self):
        # [t^n] ((1+t)/(1-t))^x = M_n(x)/n!, exact in the formal variable
        for n in range(11):
            assert ml.ml_poly_from_generating_function(n) == ml.ml_poly(n)

    def test_order_eight_example(self):
        assert ml.ml_poly_from_generating_function(8) == ml.ml_poly(8)

    def test_integer_route_equals_the_fraction_cauchy_product(self):
        # the product of the binomial series of (1+t)**x and (1-t)**(-x)
        # over Fractions, one factor 1/i per step, as it was computed
        # before the route moved to integer polynomials
        for n in range(15):
            plus, minus = [Polynomial.one()], [Polynomial.one()]
            for i in range(1, n + 1):
                plus.append(plus[i - 1] * Polynomial((-(i - 1), 1)) * Fraction(1, i))
                minus.append(minus[i - 1] * Polynomial((i - 1, 1)) * Fraction(1, i))
            expected = Polynomial.zero()
            for i in range(n + 1):
                expected = expected + plus[i] * minus[n - i]
            assert ml.generating_function_coeff(n) == expected, n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ml.generating_function_coeff(-1)
        with pytest.raises(ValueError):
            ml.coeff_telescoped(1, 1)
