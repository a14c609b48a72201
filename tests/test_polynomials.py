"""Exact polynomial arithmetic and Gaussian rationals."""

from fractions import Fraction

import pytest

from gammazeta import GaussianRational, Polynomial


class TestPolynomial:
    def test_strips_trailing_zeros(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert Polynomial((0, 0)).degree == -1

    def test_ring_operations(self):
        p = Polynomial((1, 1))  # 1 + x
        q = Polynomial((-1, 1))  # x - 1
        assert p * q == Polynomial((-1, 0, 1))
        assert p + q == Polynomial((0, 2))
        assert p - p == Polynomial.zero()
        assert (p * p * p).coeffs == (1, 3, 3, 1)

    def test_evaluation_matches_fraction_arithmetic(self):
        p = Polynomial((3, -2, 5))
        x = Fraction(2, 7)
        assert p(x) == 3 - 2 * x + 5 * x * x
        assert p(0.5) == pytest.approx(3 - 1 + 1.25)

    def test_derivative(self):
        p = Polynomial((7, 0, 4, 1))
        assert p.derivative() == Polynomial((0, 8, 3))


class TestGaussianRational:
    def test_arithmetic(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1, 0)
        assert i * i == -1
        assert (1 + i) * (1 - i) == 2
        assert GaussianRational(Fraction(1, 2), 1) - GaussianRational(0, 1) == Fraction(1, 2)

    def test_mixed_polynomial_coefficients(self):
        i = GaussianRational(0, 1)
        p = Polynomial((-i, 1)) * Polynomial((i, 1))  # (x-i)(x+i) = x^2+1
        assert p == Polynomial((1, 0, 1))

    def test_complex_conversion(self):
        z = GaussianRational(Fraction(3, 4), Fraction(-1, 2))
        assert complex(z) == 0.75 - 0.5j
        assert bool(GaussianRational(0, 0)) is False

    def test_gaussian_integer_products_stay_int(self):
        i = GaussianRational(0, 1)
        z = (3 + 2 * i) * (1 - i) * i - 4
        assert type(z.re) is int and type(z.im) is int
        assert (z.re, z.im) == (-3, 5)

    def test_int_and_fraction_components_are_one_value(self):
        # an int component compares, hashes and prints as its Fraction does
        z = GaussianRational(-7, 2) * GaussianRational(1, 1)
        w = GaussianRational(Fraction(-9), Fraction(-5))
        assert type(w.re) is Fraction
        assert z == w and hash(z) == hash(w) and {w: 1}[z] == 1
        assert (str(z.re), str(z.im)) == (str(w.re), str(w.im)) == ("-9", "-5")
        assert complex(z) == complex(w) == -9 - 5j
        assert GaussianRational(3) == 3 == GaussianRational(Fraction(3))
        assert not GaussianRational(0, 0) and not GaussianRational(Fraction(0))
