"""Bell polynomials, potential polynomials, and series powers."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammazeta import (
    SequenceTooShortError,
    TruncatedSeries,
    bell_by_partitions,
    partial_bell,
    potential_poly,
    series_pow,
)


def gamma_sequence(length):
    # x_m = m!/(m+1), the sequence whose Bell values the c-triangle encodes
    return [Fraction(factorial(m), m + 1) for m in range(1, length + 1)]


def series_reciprocal(coeffs):
    # long-division oracle: r with r * c = 1
    out = [Fraction(1, 1) / coeffs[0]]
    for n in range(1, len(coeffs)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += coeffs[j] * out[n - j]
        out.append(-acc / coeffs[0])
    return out


class TestPartialBell:
    def test_all_singletons(self):
        xs = gamma_sequence(12)
        for n in range(1, 13):
            assert partial_bell(n, n, xs) == xs[0] ** n
            assert partial_bell(n, 1, xs) == xs[n - 1]

    def test_single_block_value(self):
        assert partial_bell(2, 1, gamma_sequence(3)) == Fraction(2, 3)

    def test_three_two_cross_check(self):
        # B_{3,2} = 3 x_1 x_2 = 1; also alpha!/(alpha+beta)! * 20 = 6/120 * 20
        xs = gamma_sequence(3)
        value = partial_bell(3, 2, xs)
        assert value == 3 * xs[0] * xs[1] == 1
        assert value == Fraction(factorial(3), factorial(5)) * 20

    def test_matches_partition_enumeration(self):
        rng = random.Random(61)
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)]
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert partial_bell(n, k, xs) == bell_by_partitions(n, k, xs)

    def test_sequence_too_short(self):
        with pytest.raises(SequenceTooShortError):
            partial_bell(6, 2, gamma_sequence(3))

    @pytest.mark.parametrize("bell_value", [partial_bell, bell_by_partitions])
    def test_negative_n_is_rejected(self, bell_value):
        with pytest.raises(ValueError):
            bell_value(-1, 1, gamma_sequence(3))

    @pytest.mark.parametrize("bell_value", [partial_bell, bell_by_partitions])
    def test_negative_k_is_rejected(self, bell_value):
        with pytest.raises(ValueError):
            bell_value(3, -1, gamma_sequence(3))

    @pytest.mark.parametrize("bell_value", [partial_bell, bell_by_partitions])
    def test_short_sequence_is_rejected(self, bell_value):
        with pytest.raises(SequenceTooShortError):
            bell_value(6, 2, gamma_sequence(4))
        assert bell_value(6, 2, gamma_sequence(5)) == partial_bell(6, 2, gamma_sequence(5))

    def test_row_sums_of_ones_are_bell_numbers(self):
        # classical anchor: sum_k B_{n,k}(1,1,...) is the n-th Bell number
        ones = [Fraction(1)] * 10
        bell_numbers = [1, 2, 5, 15, 52, 203, 877, 4140]
        for n, expected in enumerate(bell_numbers, start=1):
            assert sum(partial_bell(n, k, ones) for k in range(1, n + 1)) == expected

    def test_factorial_sequence_gives_lah_numbers(self):
        # B_{n,k}(1!,2!,3!,...) = C(n-1,k-1) n!/k! (Lah numbers)
        facts = [Fraction(factorial(m)) for m in range(1, 10)]
        from math import comb

        for n in range(1, 9):
            for k in range(1, n + 1):
                expected = Fraction(comb(n - 1, k - 1) * factorial(n), factorial(k))
                assert partial_bell(n, k, facts) == expected


def _fraction_partial_bell(n, k, xs):
    # the recurrence over a table of Fractions, as the package computed it
    # before its kernels moved to integers
    if k == 0 or n == 0:
        return Fraction(int(n == 0 and k == 0))
    xs = [Fraction(x) for x in xs]
    prev = {0: Fraction(1)}
    for j in range(1, k + 1):
        cur = {}
        for m in range(j, n - (k - j) + 1):
            cur[m] = sum((comb(m - 1, i - 1) * xs[i - 1] * prev[m - i]
                          for i in range(1, m - j + 2) if m - i in prev), Fraction(0))
        prev = cur
    return prev.get(n, Fraction(0))


_BELL_TERMS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_integer_kernels_equal_the_fraction_recurrence(data, n):
    # ints, Fractions and floats, zeros and negatives among them; every
    # float is a rational, so the values are exact on both sides
    k = data.draw(st.integers(1, n))
    xs = data.draw(st.lists(st.one_of(_BELL_TERMS, st.just(0)),
                            min_size=n - k + 1, max_size=n + 2))
    expected = _fraction_partial_bell(n, k, xs)
    assert partial_bell(n, k, xs) == expected
    assert bell_by_partitions(n, k, xs) == expected
    assert type(partial_bell(n, k, xs)) is Fraction


class TestSeriesPow:
    def test_power_zero_is_one(self):
        base = TruncatedSeries([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        assert series_pow(base, 0).coeffs == (1, 0, 0)

    def test_square_of_one_plus_t(self):
        base = TruncatedSeries([Fraction(1), Fraction(1), Fraction(0)])
        assert series_pow(base, 2).coeffs == (1, 2, 1)

    def test_inverse_matches_long_division(self):
        coeffs = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                  Fraction(1, 5), Fraction(1, 6)]
        base = TruncatedSeries(coeffs)
        inverse = series_pow(base, -1)
        assert list(inverse.coeffs) == series_reciprocal(coeffs)

    def test_integer_powers_match_repeated_product(self):
        rng = random.Random(1377)
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(8)
        ]
        base = TruncatedSeries(coeffs)
        for r in (2, 3, 4):
            product = base
            for _ in range(r - 1):
                product = product * base
            assert series_pow(base, r) == product

    def test_fractional_roundtrip(self):
        rng = random.Random(4821)
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-3, 3), rng.randint(2, 7)) for _ in range(8)
        ]
        base = TruncatedSeries(coeffs)
        for r in (2, 3):
            assert series_pow(series_pow(base, r), Fraction(1, r)) == base

    def test_complex_power_matches_exact_square(self):
        base = TruncatedSeries([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        exact = series_pow(base, 2)
        inexact = series_pow(base, 2.0 + 0j)
        for c1, c2 in zip(exact.coeffs, inexact.coeffs):
            assert abs(complex(c1) - c2) < 1e-14

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_pow(TruncatedSeries([Fraction(2), Fraction(1)]), 2)


_UNIT_BASES = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=9), max_size=10
).map(lambda tail: TruncatedSeries([Fraction(1), *tail]))
_EXPONENTS = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(base=_UNIT_BASES, r1=_EXPONENTS, r2=_EXPONENTS)
def test_exponents_add_exactly(base, r1, r2):
    product = series_pow(base, r1) * series_pow(base, r2)
    assert product == series_pow(base, r1 + r2)
    assert all(type(c) is Fraction for c in product.coeffs)


@settings(max_examples=60, deadline=None)
@given(base=_UNIT_BASES, r=st.integers(0, 5))
def test_integer_power_is_repeated_product(base, r):
    product = TruncatedSeries([Fraction(1)] + [Fraction(0)] * base.order)
    for _ in range(r):
        product = product * base
    assert series_pow(base, r) == product


class TestPotentialPoly:
    def test_first_is_r_times_g1(self):
        gs = [Fraction(5, 7), Fraction(1, 3), Fraction(2)]
        assert potential_poly(1, Fraction(9, 2), gs) == Fraction(9, 2) * gs[0]

    def test_power_one_returns_sequence(self):
        gs = [Fraction(5, 7), Fraction(1, 3), Fraction(2), Fraction(-1, 6)]
        for n in range(1, 5):
            assert potential_poly(n, 1, gs) == gs[n - 1]

    def test_square_matches_series_multiplication(self):
        rng = random.Random(777)
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(4)
        ]
        base = TruncatedSeries(coeffs)
        squared = base * base
        gs = base.egf_coefficients()
        for n in range(1, 5):
            assert potential_poly(n, 2, gs) == factorial(n) * squared.coeffs[n]

    def test_complex_r(self):
        gs = [Fraction(1, 2), Fraction(1, 3)]
        value = potential_poly(2, 1 + 1j, gs)
        # (r)_1 g_2 + (r)_2 g_1^2 with g's as EGF coefficients
        expected = (1 + 1j) * Fraction(1, 3) + (1 + 1j) * (1j) * Fraction(1, 4)
        assert abs(value - expected) < 1e-14
