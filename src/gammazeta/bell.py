"""Exponential partial Bell polynomials, potential polynomials, and
truncated power series with complex powers.

This is the brute-force side of every coefficient identity in the
package: Bell values computed here from the generic recurrence are
compared against the closed-form coefficient triangles, and series
powers computed here validate the expansion coefficients. Bell values
are computed over the integers: B_{n,k} is homogeneous of degree k, so
B_{n,k}(x) = B_{n,k}(D x)/D**k for D the lcm of the denominators of
x_1..x_{n-k+1}, and one Fraction is built, at the end. Series powers
come from J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2,
sec. 4.7), in one pass over exact rationals or complex floats.

Conventions. A :class:`TruncatedSeries` stores ordinary coefficients
(``coeffs[n]`` multiplies t**n). The exponential-generating-function
coefficients g_n used by the potential polynomials relate to ordinary
coefficients b_n of the same series by g_n = n! * b_n, and the n-th
potential polynomial of a unit-constant series G is

    P_n^r = sum_{k=1..n} (r)_k B_{n,k}(g_1, g_2, ...),

the n-th EGF coefficient of G**r.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import comb, factorial, lcm, prod

from .combinatorics import falling_factorial


class SequenceTooShortError(ValueError):
    """An input sequence has fewer terms than B_{n,k} requires."""


def _on_integers(kernel):
    """Lift ``kernel(n, k, us)``, B_{n,k} over ints, to rational ``xs``
    by the scaling above, after checking n, k and the length of ``xs``."""

    @wraps(kernel)
    def bell_value(n: int, k: int, xs) -> Fraction:
        if n < 0 or k < 0:
            raise ValueError("n and k must be nonnegative")
        if k == 0 or k > n:
            return Fraction(int(n == k == 0))
        if len(xs) < n - k + 1:
            raise SequenceTooShortError(f"B_{{{n},{k}}} needs {n - k + 1} "
                                        f"sequence terms, got {len(xs)}")
        fs = [Fraction(x) for x in xs[: n - k + 1]]
        den = lcm(*(f.denominator for f in fs))
        us = [f.numerator * (den // f.denominator) for f in fs]
        return Fraction(kernel(n, k, us), den**k)

    return bell_value


@_on_integers
def partial_bell(n: int, k: int, xs):
    """Partial Bell polynomial B_{n,k}(x1, ..., x_{n-k+1}) over exact rationals.

    ``xs`` lists x1, x2, ... and must have at least n-k+1 terms.
    Computed by the recurrence

        B_{n,k} = sum_{m=1..n-k+1} C(n-1, m-1) x_m B_{n-m,k-1}

    with B_{0,0} = 1 and B_{n,0} = B_{0,k} = 0 otherwise, on the
    integers D x_m (see :func:`_on_integers`).
    """
    # table[j][(rows)] built bottom-up: bell[j] holds B_{m,j} for m = j..n
    prev = {0: 1}  # B_{m,0}: only m=0 nonzero
    for j in range(1, k + 1):
        cur: dict[int, int] = {}
        for m in range(j, n - (k - j) + 1):
            acc = 0
            for i in range(1, m - j + 2):
                b = prev.get(m - i)
                if b:
                    acc += comb(m - 1, i - 1) * xs[i - 1] * b
            cur[m] = acc
        prev = cur
    return prev[n]


@_on_integers
def bell_by_partitions(n: int, k: int, xs):
    """B_{n,k} by direct enumeration of set partitions (trust anchor), on
    the integers D x_m; exponential in n, for n <= 8 in tests only."""
    total = 0
    # enumerate partitions of {0..n-1} via restricted growth strings
    def rec(i: int, blocks: list[int]):
        nonlocal total
        if i == n:
            if len(blocks) == k:
                total += prod(xs[size - 1] for size in blocks)
            return
        for b in range(len(blocks)):
            blocks[b] += 1
            rec(i + 1, blocks)
            blocks[b] -= 1
        if len(blocks) < k:
            blocks.append(1)
            rec(i + 1, blocks)
            blocks.pop()

    rec(0, [])
    return total


class TruncatedSeries:
    """Power series known through a fixed order, ordinary coefficients.

    Coefficients are Fractions when construction allows it, complex
    otherwise; arithmetic keeps exactness as long as both operands are
    exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = []
        for i in range(n + 1):
            acc = 0
            for j in range(i + 1):
                acc += self.coeffs[j] * other.coeffs[i - j]
            out.append(acc)
        return TruncatedSeries(out)

    def egf_coefficients(self) -> list:
        """g_n = n! * coeffs[n] for n >= 1 (potential-polynomial input)."""
        return [factorial(n) * c for n, c in enumerate(self.coeffs)][1:]


def series_pow(base: TruncatedSeries, r) -> TruncatedSeries:
    """base**r as a truncated series, base having constant term 1.

    Computed by J. C. P. Miller's recurrence for B = A**r with a_0 = 1
    (Knuth, TAOCP vol. 2, sec. 4.7): b_0 = 1 and

        n b_n = sum_{k=1..n} ((r+1) k - n) a_k b_{n-k},

    in exact rationals when r and the base coefficients are rational,
    in complex floating point otherwise. The t**n coefficient equals
    P_n^r / n! for the potential polynomial of the base's EGF
    coefficients.
    """
    a = base.coeffs
    if a[0] != 1:
        raise ValueError("series_pow requires constant term 1")
    if all(isinstance(c, (int, Fraction)) for c in (r, *a)):
        r, b = Fraction(r), [Fraction(1)]
    else:
        r, a, b = complex(r), [complex(c) for c in a], [1 + 0j]
    for n in range(1, len(a)):
        b.append(sum(((r + 1) * k - n) * a[k] * b[n - k] for k in range(1, n + 1)) / n)
    return TruncatedSeries(b)


def potential_poly(n: int, r, gs):
    """Potential polynomial P_n^r = sum_k (r)_k B_{n,k}(g1, g2, ...).

    Bell values are exact; the falling-factorial combination happens in
    the arithmetic of ``r`` (exact for rational r, complex otherwise).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = 0
    for k in range(1, n + 1):
        b = partial_bell(n, k, gs)
        if b:
            acc = acc + falling_factorial(r, k) * b
    return acc
