"""Factorial series expansion of Gamma(s+1) and its coefficient triangle.

The expansion integrates (-log(1-t))**s = t**s * (1 + t/2 + t**2/3 + ...)**s
over (0, 1) termwise:

    Gamma(s+1) = 1/(s+1) + sum_{a>=1} 1/(s+a+1) * A_a(s),
    A_a(s)     = sum_{b=1..a} (s)_b * c[a,b] / (a+b)!,

where the integer triangle c[a,b] collects the Bell-polynomial values of
the sequence (1/2, 2!/3, 3!/4, ...):

    B_{a,b}(1/2, 2!/3, ...) = a! * c[a,b] / (a+b)!.

Two equivalent routes produce c[a,b]: an alternating sum over Stirling
numbers of the first kind (the definition), and the two-term recurrence

    c[a,b] = (a+b-1) * (c[a-1,b] + c[a-1,b-1]),    c[0,0] = 1,

which builds ``TRIANGLE`` for the tables and the Bell values; their
equivalence is one of the verified identities. At rational s the
"recurrence" path propagates the summands g[a,b] = (s)_b c[a,b]/(a+b)! via

    g[a,b] = (a+b-1)/(a+b) g[a-1,b] + (s-b+1)/(a+b) g[a-1,b-1].

Arithmetic backends: for rational s both paths give each term as a
correctly rounded float, from certified fixed point or, failing that,
exact integers (see :mod:`gammazeta.factorial_series`). For non-real s
both paths are one route: A_a(s) is the coefficient of t**a in the
series power (1 + t/2 + t**2/3 + ...)**s, in complex floating point,
which stays accurate at depth (every term within 2e-14 relative of a
200-bit reference in the checks of that module).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import bell, factorial_series as fs, oracles
from .combinatorics import CachedTriangle, _two_term_row, binomial, stirling1
from .report import SeriesReport

#: the Gamma side of the factorial-series engine: row stride 1, Re(s) > -1
SIDE = fs.kernel_side(1, -1)
#: row a holds c[a, b] for b = 0..a
TRIANGLE = CachedTriangle(_two_term_row(lambda a, b: a + b - 1, lambda a, b: a + b - 1))


def coeff(alpha: int, beta: int) -> int:
    """Triangle entry c[alpha, beta] (recurrence route)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return TRIANGLE.entry(alpha, beta)


def coeff_direct(alpha: int, beta: int) -> int:
    """c[alpha, beta] from the defining alternating Stirling-number sum,

        sum_{k=1..beta} (-1)**(beta-k) s1(alpha+k, k) C(alpha+beta, beta-k),

    independent of the recurrence route. The sum represents rows
    alpha >= 1 only; row 0 is the boundary row (1, 0, 0, ...) coming
    from the leading 1 of the underlying double series, where the
    alternating sum instead telescopes to (-1)**(beta+1).
    """
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be nonnegative")
    if alpha == 0:
        return 1 if beta == 0 else 0
    if beta == 0:
        return 0
    acc = 0
    for k in range(1, beta + 1):
        term = stirling1(alpha + k, k) * binomial(alpha + beta, beta - k)
        acc += term if (beta - k) % 2 == 0 else -term
    return acc


def coeff_table(max_row: int) -> list[list[int]]:
    """Rows 0..max_row of the triangle; row a has entries b = 0..a."""
    return TRIANGLE.rows(max_row)


def log_series_bell_value(alpha: int, beta: int) -> Fraction:
    """Exact Bell value B_{alpha,beta}(1/2, 2!/3, 3!/4, ...) as
    alpha! * c[alpha,beta] / (alpha+beta)!."""
    if not 1 <= beta <= alpha:
        raise ValueError("requires 1 <= beta <= alpha")
    return Fraction(factorial(alpha) * coeff(alpha, beta), factorial(alpha + beta))


def expansion_terms(s, n_terms: int, path: str = "direct") -> list[complex]:
    """The first ``n_terms`` terms of the expansion (index a = 0..n_terms-1).

    Term 0 is 1/(s+1); term a is A_a(s)/(s+a+1). At rational s ``path``
    selects the weights of the kernel triangle ("direct") or the summand
    recurrence ("recurrence"), and each term comes out correctly
    rounded; complex s runs the series power in floating point on
    either path.
    """
    return fs.expansion_terms(SIDE, s, n_terms, path)


def partial_sums(s, n_terms: int, path: str = "direct") -> list[complex]:
    """Running partial sums of :func:`expansion_terms`."""
    return fs.running_sums(expansion_terms(s, n_terms, path))


def integrand_coeffs(s, order: int) -> bell.TruncatedSeries:
    """Coefficients A_a(s) of t**a in (1 + t/2 + t**2/3 + ...)**s.

    Exact Fractions for rational s, complex otherwise. A_0 = 1.
    """
    return bell.TruncatedSeries(fs.coefficients(SIDE, s, order))


def reference_value(s) -> complex:
    """Gamma(s+1), the value the expansion converges to, at an s that
    passes the expansion's own checks."""
    fs.checked(SIDE, s)
    return oracles.gamma_ref(complex(s + 1))  # s + 1 exact at rational s


def evaluate(s, n_terms: int, path: str = "direct") -> SeriesReport:
    """Evaluate the truncated expansion and compare against the Gamma
    oracle, asked first: an s that it refuses costs no terms."""
    reference = reference_value(s)
    return fs.series_report(s, path, expansion_terms(s, n_terms, path), reference)
