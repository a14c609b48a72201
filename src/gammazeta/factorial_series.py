"""The factorial-series engine shared by the Gamma and zeta expansions.

Both expansions have the shape

    F(s) = pref(s) * ( 1/(s+1) + sum_{a>=1} 1/(s+r+1) * A_a(s) ),
    A_a(s) = sum_{b=1..a} T[r,b] (s)_b / (r+b)!,    r = d*a,

with a kernel triangle T obeying

    T[r,b] = (r+b-1)...(r+b-d) * (T[r-d,b] + T[r-d,b-1]),    T[0,0] = 1.

The sides differ only in the row stride d: d = 1 with T = c on the
Gamma side, d = 2 with the even rows of b on the zeta side (the odd
rows vanish). A :class:`Side` carries d and the cached kernel rows;
row a of its triangle holds T[d*a, b] for b = 0..a.

The "direct" path combines the kernel rows with falling factorials.
The "recurrence" path never touches the triangle: it propagates the
summands g[r,b] = T[r,b](s)_b/(r+b)! by

    g[r,b] = (r+b-d)/(r+b) g[r-d,b] + (s-b+1)/(r+b) g[r-d,b-1].

For rational s = p/q both run over exact integers (scaled by a common
denominator per term), sum each term by Horner's rule and round it
once, to a correctly rounded float. For non-real s they run in complex
floating point.

Domain checks and the prefactor stay with the callers, as does the
choice between the exact and the float backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod
from numbers import Rational

from .combinatorics import CachedTriangle
from .report import SeriesReport

PATHS = ("direct", "recurrence")


@dataclass(frozen=True)
class Side:
    """One expansion: row stride ``stride`` and kernel ``triangle``,
    whose row a holds T[stride*a, b] for b = 0..a."""

    stride: int
    triangle: CachedTriangle


def _next_row(prev: list[int], left: list[int], a: int, d: int) -> list[int]:
    # row[b] = (r+b-1)...(r+b-d) (prev[b] + left[b-1]), r = d*a. With
    # left = prev this is the kernel triangle; with left[j] = (p-jq) prev[j]
    # it is the integer form M[a,b] = q**b (r+b)! g[r,b] of the summand
    # recurrence (M[0,0] = 1).
    r = d * a
    row = [0] * (a + 1)
    factor = prod(range(r - d + 1, r + 1))  # (r+b-1)...(r+b-d) at b = 1
    for b in range(1, a + 1):
        upper = prev[b] if b < len(prev) else 0
        row[b] = factor * (upper + left[b - 1])
        factor = factor * (r + b) // (r + b - d)
    return row


def kernel_side(stride: int) -> Side:
    """A side whose kernel rows are built, and cached, by the recurrence."""
    return Side(stride, CachedTriangle(
        lambda rows, a: _next_row(rows[a - 1], rows[a - 1], a, stride) if a else [1]))


def as_fraction(s) -> Fraction | None:
    """Exact rational view of s, or None when s is truly complex/irrational.

    Floats convert exactly (their binary value is rational), so the
    exact backend serves every real argument.
    """
    if isinstance(s, (Rational, float)):
        return Fraction(s)
    if isinstance(s, complex):
        if s.imag == 0.0:
            return Fraction(s.real)
        return None
    raise TypeError(f"unsupported argument type {type(s)!r}")


def check_request(n_terms: int, path: str) -> None:
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}")


def _falling(p: int, q: int, n: int) -> list[int]:
    falling = [1] * n  # falling[b] = prod_{j<b} (p - j q) = q**b * (s)_b
    for b in range(1, n):
        falling[b] = falling[b - 1] * (p - (b - 1) * q)
    return falling


def _numerator(row: list[int], r: int, q: int) -> int:
    # sum_b row[b] q**(a-b) (r+a)!/(r+b)!, a = len(row) - 1: the sum of
    # row[b]/(q**b (r+b)!) over the common denominator q**a (r+a)!, by
    # Horner's rule with b ascending (one small-by-big product per step)
    num = 0
    for b in range(1, len(row)):
        num = num * ((r + b) * q) + row[b]
    return num


def _exact_sums(side: Side, p: int, q: int, n: int, path: str):
    """(numerator, denominator) of A_a(p/q) for a = 1..n-1, over the
    common denominator q**a (r+a)!."""
    d = side.stride
    if path == "direct":
        side.triangle.ensure(n - 1)
        falling = _falling(p, q, n)
    row = [1]
    for a in range(1, n):
        r = d * a
        if path == "direct":
            row = [f * t for f, t in zip(falling, side.triangle.row(a))]
        else:
            row = _next_row(row, [(p - j * q) * m for j, m in enumerate(row)], a, d)
        yield _numerator(row, r, q), q**a * factorial(r + a)


def exact_terms(
    side: Side, s: Fraction, n_terms: int, path: str, pref=None
) -> list[complex]:
    """Terms 0..n_terms-1 of the expansion at rational s, each rounded
    once; ``pref`` (a float, or None for no prefactor) scales each
    rounded term."""
    p, q = s.numerator, s.denominator
    terms = [q / (p + q) if pref is None else pref * q / (p + q)]
    for a, (num, den) in enumerate(_exact_sums(side, p, q, n_terms, path), 1):
        t = (num * q) / (den * (p + (side.stride * a + 1) * q))
        terms.append(t if pref is None else pref * t)
    return [complex(t) for t in terms]


def _binomials(s: complex, n: int) -> list[complex]:
    # binom[b] = (s)_b / b!, numerically tame for all b
    binom = [1.0 + 0j] * n
    for b in range(1, n):
        binom[b] = binom[b - 1] * (s - b + 1) / b
    return binom


def _float_weights(side: Side, a: int) -> list[float]:
    # T[r,b] * b!/(r+b)! as floats; folding b! into the exact factor keeps
    # both float factors in range ((s)_b alone overflows past b ~ 170)
    row = side.triangle.row(a)
    r = side.stride * a
    out = [0.0] * (a + 1)
    ratio = factorial(r)  # (r+b)!/b!, advanced by *(r+b)/b per step
    for b in range(1, a + 1):
        ratio = ratio * (r + b) // b
        out[b] = row[b] / ratio  # int/int true division is correctly rounded
    return out


def _float_coeff(side: Side, binom: list[complex], a: int) -> complex:
    w = _float_weights(side, a)
    inner = 0j
    for b in range(a, 0, -1):  # smallest summands first
        inner += binom[b] * w[b]
    return inner


def float_terms(
    side: Side, s: complex, n_terms: int, path: str, pref=None
) -> list[complex]:
    """Terms 0..n_terms-1 of the expansion at complex s in floating
    point; ``pref`` (complex, or None for no prefactor) multiplies each
    inner sum before its pole factor divides it."""
    d = side.stride
    terms = [1 / (s + 1) if pref is None else pref / (s + 1)]
    if path == "direct":
        side.triangle.ensure(n_terms - 1)
        binom = _binomials(s, n_terms)
    row = [1.0 + 0j]
    for a in range(1, n_terms):
        r = d * a
        if path == "direct":
            inner = _float_coeff(side, binom, a)
        else:
            prev, row = row, [0j] * (a + 1)
            for b in range(1, a + 1):
                upper = prev[b] if b < len(prev) else 0j
                row[b] = ((r + b - d) / (r + b) * upper
                          + (s - b + 1) / (r + b) * prev[b - 1])
            inner = sum(row[b] for b in range(a, 0, -1))
        den = s + r + 1
        terms.append(inner / den if pref is None else pref * inner / den)
    return terms


def coefficients(side: Side, s, order: int) -> list:
    """A_0(s)..A_order(s): exact Fractions for rational s, complex otherwise."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    side.triangle.ensure(order)
    frac = as_fraction(s)
    if frac is not None:
        sums = _exact_sums(side, frac.numerator, frac.denominator, order + 1, "direct")
        return [Fraction(1)] + [Fraction(num, den) for num, den in sums]
    binom = _binomials(complex(s), order + 1)
    return [1 + 0j] + [_float_coeff(side, binom, a) for a in range(1, order + 1)]


def running_sums(terms: list[complex]) -> list[complex]:
    return list(accumulate(terms, initial=0j))[1:]


def series_report(s, path: str, terms: list[complex], reference: complex) -> SeriesReport:
    partial_sum = sum(terms)
    abs_error = abs(partial_sum - reference)
    return SeriesReport(
        s=complex(s),
        terms=len(terms),
        path=path,
        partial_sum=partial_sum,
        reference=reference,
        abs_error=abs_error,
        rel_error=abs_error / abs(reference) if reference else float("inf"),
        term_magnitudes=[abs(t) for t in terms],
    )
