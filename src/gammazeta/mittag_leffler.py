"""Mittag-Leffler polynomials M_n and their coefficient triangle.

M_n(x) is the n-th Taylor coefficient (times n!) of ((1+t)/(1-t))**x.
Only the coefficient triangle a[n,k] (coefficient of x**k in M_n) is
needed downstream: the zeta-side triangle is an alternating binomial
transform of it. Normalized by g_n = M_n/n!, Bateman's recurrence

    n g_n(x) = (n-2) g_{n-2}(x) + 2x g_{n-1}(x)

gives M_n(x) = (n-1)(n-2) M_{n-2}(x) + 2x M_{n-1}(x) and hence

    a[n,k] = (n-1)(n-2) a[n-2,k] + 2 a[n-1,k-1],    a[0,0] = 1.

Telescoping that recurrence on its last term yields the closed sum
implemented by :func:`coeff_telescoped`. Structure worth noting:
a[n,k] = 0 exactly when n-k is odd, a[n,n] = 2**n, and 2**k divides
a[n,k] (the division in the zeta triangle is exact because of this).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .combinatorics import CachedTriangle
from .polynomials import Polynomial


def _ml_row(rows: list[list[int]], n: int) -> list[int]:
    if n == 0:
        return [1]
    row = [0] * (n + 1)
    prev2 = rows[n - 2] if n >= 2 else []
    prev1 = rows[n - 1]
    for k in range(n + 1):
        two_back = prev2[k] if k < len(prev2) else 0
        diag = prev1[k - 1] if 1 <= k <= len(prev1) else 0
        row[k] = (n - 1) * (n - 2) * two_back + 2 * diag
    return row


#: a[n,k] built by the two-term recurrence.
ML_COEFFS = CachedTriangle(_ml_row)


def coeff(n: int, k: int) -> int:
    """Triangle entry a[n,k], the coefficient of x**k in M_n(x).

    Zero outside the triangle, including negative indices (telescoped
    sums index freely).
    """
    return ML_COEFFS.entry(n, k)


def coeff_table(max_row: int) -> list[list[int]]:
    return ML_COEFFS.rows(max_row)


def coeff_telescoped(n: int, k: int) -> int:
    """a[n,k] by the telescoped sum

        sum_{m=0..k-1} 2**m (n-1-m)(n-2-m) a[n-2-m, k-m]  (+ 2**k if n == k).

    The boundary term 2**k a[n-k,0] is what the repeated expansion of the
    recurrence leaves behind; it vanishes for n > k but carries the whole
    diagonal value a[n,n] = 2**n.
    """
    if n < 2 or k < 1:
        raise ValueError("requires n >= 2 and k >= 1")
    acc = 0
    for m in range(k):
        acc += 2**m * (n - 1 - m) * (n - 2 - m) * coeff(n - 2 - m, k - m)
    if n == k:
        acc += 2**k
    return acc


def ml_poly(n: int) -> Polynomial:
    """M_n(x) with exact integer coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Polynomial(ML_COEFFS.row(n))


def generating_function_coeff(n: int) -> Polynomial:
    """Coefficient of t**n in ((1+t)/(1-t))**x as an exact polynomial in x.

    Computed by the Cauchy product of the binomial series of (1+t)**x
    and (1-t)**(-x) with x kept formal, over integer polynomials: n!
    times the coefficient is sum_i C(n, i) x^(i falling) x^(n-i rising),
    scaled by 1/n! once. Equals M_n(x)/n!; this is the independent route
    the triangle is checked against.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    falling: list[Polynomial] = [Polynomial.one()]
    rising: list[Polynomial] = [Polynomial.one()]
    for i in range(1, n + 1):
        falling.append(falling[i - 1] * Polynomial((-(i - 1), 1)))
        rising.append(rising[i - 1] * Polynomial((i - 1, 1)))
    acc = Polynomial.zero()
    for i in range(n + 1):
        acc = acc + (falling[i] * rising[n - i]).scale(comb(n, i))
    return acc.scale(Fraction(1, factorial(n)))


def ml_poly_from_generating_function(n: int) -> Polynomial:
    """M_n(x) recovered as n! times the generating-function coefficient.

    The result has integer values stored as Fractions; callers compare
    against :func:`ml_poly` for the exact identity.
    """
    return generating_function_coeff(n).scale(factorial(n))
