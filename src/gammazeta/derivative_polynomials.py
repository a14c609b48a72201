"""Derivative polynomials of solutions of constant-coefficient Riccati
equations, and root isolation for the reduced family.

If x(t) solves x' = a(x - alpha)(x - beta) then the n-th derivative of
x(t) is a polynomial in x:

    x^(n) = a**n * sum_{k=0..n-1} E(n,k) (x-alpha)**(k+1) (x-beta)**(n-k)

with Eulerian weights E(n,k). The logistic-decay case x(t) = 1/(1+e^t)
solves x' = x**2 - x, i.e. (a, alpha, beta) = (1, 0, 1); its derivative
polynomials are written Q here, deg Q_n = n, with the equivalent
Stirling-number closed form

    Q_n(x) = sum_{k=1..n} (-1)**(n-k) (k-1)! S2(n,k) x**k.

Q_n is divisible by x(x-1); the quotient P_{n-2} (deg n-2) is what the
zeta-side integral identities integrate against. For n >= 1, P_n has n
simple real roots in (0,1), located here at any degree by dyadic
bisection: Descartes' rule of signs isolates them, the sign of P_n
narrows each isolated cell (no floating point anywhere).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, count
from math import factorial, prod

from .combinatorics import eulerian, stirling2
from .polynomials import Polynomial
from .report import DefectError

BRACKET_WIDTH = Fraction(1, 10**12)
_X = Polynomial((0, 1))
_X_MINUS_1 = Polynomial.x_minus(1)


def _eulerian_form(n: int, xa: Polynomial, xb: Polynomial) -> Polynomial:
    """F_n = sum_{k<n} E(n,k) xa**k xb**(n-1-k), by Horner's rule in xa
    with the powers of xb carried along."""
    acc = Polynomial.zero()
    xb_pow = Polynomial.one()
    for k in reversed(range(n)):
        acc = acc * xa + xb_pow.scale(eulerian(n, k))
        xb_pow = xb_pow * xb
    return acc


def riccati_derivative(n: int, a, alpha, beta) -> Polynomial:
    """x^(n) as an exact polynomial in x for x' = a(x-alpha)(x-beta).

    Coefficients live in the ring generated by a, alpha, beta (ints,
    Fractions, or GaussianRational for conjugate root pairs, e.g.
    tan with alpha = i, beta = -i).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not a:
        raise ValueError("leading coefficient a must be nonzero")
    xa = Polynomial.x_minus(alpha)
    xb = Polynomial.x_minus(beta)
    return (xa * xb * _eulerian_form(n, xa, xb)).scale(prod([a] * n))


def _q_stirling(n: int) -> Polynomial:
    coeffs = [0] * (n + 1)
    for k in range(1, n + 1):
        v = factorial(k - 1) * stirling2(n, k)
        coeffs[k] = v if (n - k) % 2 == 0 else -v
    return Polynomial(coeffs)


def derivative_polynomial(n: int) -> Polynomial:
    """Q_n for the logistic-decay case, n >= 2, as x(x-1) P_{n-2}.

    :func:`reduced_polynomial` has checked that product against the
    Stirling form of Q_n, so a disagreement of the closed forms raises
    its DefectError here too.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    return _X * _X_MINUS_1 * reduced_polynomial(n - 2)


@cache
def reduced_polynomial(n: int) -> Polynomial:
    """P_n = Q_{n+2} / (x(x-1)), degree n, built from its Eulerian form
    once per process.

    The divisibility is re-derived, not assumed: x(x-1) P_n must equal
    the Stirling form of Q_{n+2}, else a defect is raised.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reduced = _eulerian_form(n + 1, _X, _X_MINUS_1)
    if _X * _X_MINUS_1 * reduced != _q_stirling(n + 2):
        raise DefectError(f"P_{n}: Eulerian form differs from Q_{n + 2}/(x(x-1))")
    return reduced


def _taylor_shift(coeffs: list) -> list:
    """Coefficients of q(x+1) from those of q(x), by synthetic division:
    each running sum from the top fixes the lowest open coefficient."""
    sums, shifted = coeffs[::-1], []
    while sums:
        sums = list(accumulate(sums))
        shifted.append(sums.pop())
    return shifted


def _scaled_value(coeffs, c: int, k: int):
    """2**(k m) p(c/2**k) for p of degree m, by Horner's rule on integers."""
    acc, scale = 0, 1
    for a in reversed(coeffs):
        acc = acc * c + a * scale
        scale <<= k
    return acc


def _refine(
    coeffs, k: int, c: int, left_sign: bool, level: int
) -> tuple[Fraction, Fraction]:
    """Bracket the one simple root of p in the cell [c/2**k, (c+1)/2**k]
    by halving the cell down to the given level; left_sign is whether
    p > 0 just right of the cell's left end."""
    while k < level:
        k, c = k + 1, 2 * c + 1
        value = _scaled_value(coeffs, c, k)
        if not value:
            return Fraction(c, 1 << k), Fraction(c, 1 << k)
        if (value > 0) != left_sign:
            c -= 1  # the sign changes in the left half
    return Fraction(c, 1 << k), Fraction(c + 1, 1 << k)


def roots_in_unit_interval(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """Bracket every root of p in (0,1) to width <= 1e-12, exactly, in
    increasing order.

    Descartes isolation, sign-bisection refinement (Collins & Akritas
    1976). The cell [c/2**k, (c+1)/2**k] carries the integer polynomial
    q(x) = 2**(k m) p((c+x)/2**k); its left half is q(x/2) scaled by
    2**m, its right half that shifted by 1. The rule of signs bounds the
    roots in a cell. A cell where it admits none is dropped; one where
    it admits two or more is halved while wider than 1e-12, and then
    yields no bracket (a root cluster or a multiple root). A cell where
    it admits exactly one holds one simple root, and the sign of p at
    each midpoint halves it down to width 1e-12: the counts of two
    halves add up to at most the cell's, so this keeps the half the
    rule would. A dyadic root gives a zero-width bracket: a zero
    constant term, divided out, or a zero midpoint value. Raises
    DefectError if fewer brackets than deg(p) appear.
    """
    if not p:
        raise ValueError("the zero polynomial vanishes on all of (0,1)")
    # cells at this level are no wider than BRACKET_WIDTH
    level = next(k for k in count() if Fraction(1, 1 << k) <= BRACKET_WIDTH)
    brackets: list[tuple[Fraction, Fraction]] = []
    cells = [(0, 0, list(p.coeffs))]  # (k, c, q), the leftmost cell last
    while cells:
        k, c, q = cells.pop()
        if not q[0]:
            if c:  # a root at 0 is outside (0,1)
                brackets.append((Fraction(c, 1 << k),) * 2)
            q = q[next(i for i, a in enumerate(q) if a):]
        # sign variations of (x+1)**m q(1/(x+1)) bound the roots in the
        # cell, with the same parity, and equal them when all are real
        signs = [a > 0 for a in _taylor_shift(q[::-1]) if a]
        roots = sum(a != b for a, b in zip(signs, signs[1:]))
        if roots == 1:
            brackets.append(_refine(p.coeffs, k, c, q[0] > 0, level))
        elif roots and k < level:
            m = len(q) - 1
            left = [a * (1 << (m - i)) for i, a in enumerate(q)]
            cells.append((k + 1, 2 * c + 1, _taylor_shift(left)))
            cells.append((k + 1, 2 * c, left))
    if len(brackets) < p.degree:
        raise DefectError(
            f"found {len(brackets)} roots in (0,1), expected {p.degree}"
        )
    return brackets


@cache
def reduced_brackets(n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The root brackets of P_n in (0,1), isolated once per process."""
    return tuple(roots_in_unit_interval(reduced_polynomial(n)))


def interlacing_check(n: int) -> bool:
    """True iff exactly one root of P_n lies between each pair of
    consecutive roots of P_{n+1}; vacuously true for n = 0. It reads
    :func:`reduced_brackets`, so a sweep over n isolates each P_n once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return True
    outer = reduced_brackets(n + 1)
    inner = reduced_brackets(n)
    if len(outer) != n + 1 or len(inner) != n:
        return False
    for i in range(n):
        gap_lo = outer[i][1]  # right end of i-th outer bracket
        gap_hi = outer[i + 1][0]
        inside = [r for r in inner if gap_lo < r[0] and r[1] < gap_hi]
        if len(inside) != 1:
            return False
    return True
