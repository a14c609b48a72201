"""Combinatorial numbers: frozen examples, enumeration oracles, identities."""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from gammazeta import (
    binomial,
    double_factorial_odd,
    eulerian,
    falling_factorial,
    rising_factorial,
    stirling1,
    stirling2,
)


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def count_permutations_by_cycles(n: int, k: int) -> int:
    return sum(1 for p in permutations(range(n)) if cycle_count(p) == k)


def count_set_partitions(n: int, k: int) -> int:
    # restricted growth strings
    def rec(i, blocks):
        if i == n:
            return 1 if blocks == k else 0
        total = rec(i + 1, blocks + 1)  # open a new block
        total += blocks * rec(i + 1, blocks)  # join an existing one
        return total

    return rec(1, 1) if n >= 1 else (1 if k == 0 else 0)


def count_permutations_by_ascents(n: int, k: int) -> int:
    return sum(
        1
        for p in permutations(range(n))
        if sum(1 for i in range(n - 1) if p[i] < p[i + 1]) == k
    )


class TestStirlingFirst:
    def test_boundary_conventions(self):
        assert stirling1(0, 0) == 1
        assert stirling1(3, 0) == 0
        assert stirling1(4, 7) == 0
        assert stirling1(4, -1) == 0

    def test_counts_cycles(self):
        # oracle: enumerate 4-element permutations with 2 cycles
        assert count_permutations_by_cycles(4, 2) == 11
        assert stirling1(4, 2) == 11
        for n in range(1, 7):
            for k in range(n + 1):
                assert stirling1(n, k) == count_permutations_by_cycles(n, k)

    def test_row_sums_are_factorials(self):
        for n in range(21):
            assert sum(stirling1(n, k) for k in range(n + 1)) == factorial(n)

    def test_telescoped_identity(self):
        # s1(n,k) = sum_{j=1..k} (n-j) s1(n-j, k+1-j) whenever n >= k+2
        for n in range(2, 21):
            for k in range(n - 1):
                total = sum(
                    (n - j) * stirling1(n - j, k + 1 - j) for j in range(1, k + 1)
                )
                assert total == stirling1(n, k)

    def test_generating_function(self):
        # (1-t)^(-u) = 1 + sum s1(n,k) t^n u^k / n!, checked through order 12
        for u in (1, 2, 3):
            for n in range(1, 13):
                lhs = Fraction(binomial(u + n - 1, n))
                rhs = Fraction(
                    sum(stirling1(n, k) * u**k for k in range(1, n + 1)), factorial(n)
                )
                assert lhs == rhs


class TestStirlingSecond:
    def test_examples(self):
        assert count_set_partitions(3, 2) == 3
        assert stirling2(3, 2) == 3
        for n in range(1, 13):
            assert stirling2(n, n) == 1
            assert stirling2(n, 0) == 0

    def test_against_enumeration(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert stirling2(n, k) == count_set_partitions(n, k)


class TestEulerian:
    def test_frozen_row_three(self):
        assert (eulerian(3, 0), eulerian(3, 1), eulerian(3, 2)) == (1, 4, 1)

    def test_no_ascent_permutation_is_unique(self):
        for n in range(1, 13):
            assert eulerian(n, 0) == 1

    def test_against_enumeration(self):
        # oracle: all 120 permutations of 5 elements, count ascents
        assert count_permutations_by_ascents(5, 2) == 66
        assert eulerian(5, 2) == 66
        for n in range(1, 7):
            for k in range(n):
                assert eulerian(n, k) == count_permutations_by_ascents(n, k)

    def test_row_sums_and_symmetry(self):
        for n in range(1, 21):
            row = [eulerian(n, k) for k in range(n)]
            assert sum(row) == factorial(n)
            assert row == row[::-1]


class TestPlumbing:
    def test_binomial(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0

    def test_factorials(self):
        assert factorial(6) == 720
        assert double_factorial_odd(4) == 105
        assert double_factorial_odd(0) == 1

    def test_falling_rising_basics(self):
        assert falling_factorial(3, 0) == 1
        assert falling_factorial(3, 3) == 6
        assert rising_factorial(0.5, 2) == pytest.approx(0.75, abs=1e-15)
        assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)

    def test_rising_is_shifted_falling(self):
        rng = random.Random(90125)
        for _ in range(25):
            s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            for k in range(11):
                rise = rising_factorial(s, k)
                fall = falling_factorial(s + k - 1, k)
                assert abs(rise - fall) <= 1e-12 * max(1.0, abs(rise))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            stirling1(-1, 0)
        with pytest.raises(ValueError):
            falling_factorial(1.0, -2)


class TestConcurrentConstruction:
    def test_racing_readers_see_consistent_rows(self):
        # fresh triangle so construction actually races
        import threading

        from gammazeta.combinatorics import CachedTriangle, _two_term_row

        triangle = CachedTriangle(_two_term_row(lambda n, k: n - 1, lambda n, k: 1))
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(60):
                n = rng.randint(0, 220)
                k = rng.randint(0, n)
                if triangle.entry(n, k) != stirling1(n, k):
                    errors.append((n, k))

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
