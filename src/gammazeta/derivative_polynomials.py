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
simple real roots in (0,1), located here by an exact-arithmetic sign
scan plus bisection (no floating point in any sign decision).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .combinatorics import eulerian, stirling2
from .polynomials import Polynomial
from .report import DefectError

GRID_POINTS = 4096
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
    """Q_n for the logistic-decay case, n >= 2.

    Computes both closed forms and refuses to return a value on which
    they disagree.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    from_eulerian = _X * _X_MINUS_1 * _eulerian_form(n - 1, _X, _X_MINUS_1)
    if from_eulerian != _q_stirling(n):
        raise DefectError(f"Q_{n}: Eulerian and Stirling closed forms disagree")
    return from_eulerian


def reduced_polynomial(n: int) -> Polynomial:
    """P_n = Q_{n+2} / (x(x-1)), degree n, built from its Eulerian form.

    The divisibility is re-derived, not assumed: x(x-1) P_n must equal
    the Stirling form of Q_{n+2}, else a defect is raised.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reduced = _eulerian_form(n + 1, _X, _X_MINUS_1)
    if _X * _X_MINUS_1 * reduced != _q_stirling(n + 2):
        raise DefectError(f"P_{n}: Eulerian form differs from Q_{n + 2}/(x(x-1))")
    return reduced


def _sign_at(p: Polynomial, point: Fraction) -> int:
    v = p.eval_int_scaled(point.numerator, point.denominator)
    return (v > 0) - (v < 0)


def roots_in_unit_interval(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """Bracket every root of p in (0,1) to width <= 1e-12, exactly.

    Scans a uniform grid of 4096 cells for sign changes (all roots of
    the reduced polynomials are simple, so sign changes find them),
    then bisects with exact rational arithmetic. A grid point that is
    itself a root yields a zero-width bracket. Raises DefectError if
    fewer brackets than deg(p) appear.
    """
    grid = [Fraction(i, GRID_POINTS) for i in range(GRID_POINTS + 1)]
    signs = [_sign_at(p, g) for g in grid]
    brackets: list[tuple[Fraction, Fraction]] = []
    last_nonzero = 0  # index of last grid point with nonzero sign
    for i, sg in enumerate(signs):
        if sg == 0:
            if 0 < i < GRID_POINTS:
                brackets.append((grid[i], grid[i]))
            continue
        # a zero grid point between them is already a bracket of its own
        if i == last_nonzero + 1 and signs[last_nonzero] * sg < 0:
            lo, hi = grid[last_nonzero], grid[i]
            slo = signs[last_nonzero]
            while hi - lo > BRACKET_WIDTH:
                mid = (lo + hi) / 2
                sm = _sign_at(p, mid)
                if sm == 0:
                    lo = hi = mid
                    break
                if sm == slo:
                    lo = mid
                else:
                    hi = mid
            brackets.append((lo, hi))
        last_nonzero = i
    if len(brackets) < p.degree:
        raise DefectError(
            f"found {len(brackets)} roots in (0,1), expected {p.degree}"
        )
    return brackets


def interlacing_check(n: int) -> bool:
    """True iff exactly one root of P_n lies between each pair of
    consecutive roots of P_{n+1}; vacuously true for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return True
    outer = roots_in_unit_interval(reduced_polynomial(n + 1))
    inner = roots_in_unit_interval(reduced_polynomial(n))
    if len(outer) != n + 1 or len(inner) != n:
        return False
    for i in range(n):
        gap_lo = outer[i][1]  # right end of i-th outer bracket
        gap_hi = outer[i + 1][0]
        inside = [r for r in inner if gap_lo < r[0] and r[1] < gap_hi]
        if len(inside) != 1:
            return False
    return True
