"""The factorial-series engine shared by the Gamma and zeta expansions.

Both expansions have the shape

    F(s) = pref(s) * ( 1/(s+1) + sum_{a>=1} 1/(s+r+1) * A_a(s) ),
    A_a(s) = sum_{b=1..a} T[r,b] (s)_b / (r+b)!,    r = d*a,

with a kernel triangle T obeying

    T[r,b] = (r+b-1)...(r+b-d) * (T[r-d,b] + T[r-d,b-1]),    T[0,0] = 1.

The sides differ only in the row stride d: d = 1 with T = c on the
Gamma side, d = 2 with the even rows of b on the zeta side (the odd
rows vanish). A :class:`Side` carries d, the kernel rows that only the
tables read (row a holds T[d*a, b] for b = 0..a), and the float weights
of the direct path.

The "direct" path combines the kernel rows with falling factorials,
as A_a(s) = sum_b w[r,b] (s)_b/b! with the s-independent weights
w[r,b] = T[r,b] b!/(r+b)!. The "recurrence" path never touches the
triangle: it propagates the summands g[r,b] = T[r,b](s)_b/(r+b)! by

    g[r,b] = (r+b-d)/(r+b) g[r-d,b] + (s-b+1)/(r+b) g[r-d,b-1].

At s = -1 the summands are (-1)**b w[r,b], so the weights obey the same
recurrence, w[r,b] = ((r+b-d) w[r-d,b] + b w[r-d,b-1])/(r+b), and both
tiers build them without the triangle: the fixed-point tier per call at
its precision, the float tier once per side, cached in ``Side.weights``.
Every term is nonnegative, so nothing cancels: each float row adds about
3u at most to the relative error of a weight (u = 2**-53), so a weight of
row a errs by about 3 a u at most (measured below 0.6 a u to a = 400).

For rational s = p/q each term A_a(s)/(s+r+1) comes out correctly
rounded, from the first of three tiers that can vouch for it:

1. Certified fixed point (every s but 0). Every value is an integer
   scaled by 2**P; each step is a floor division, so only small-by-P-bit
   products appear (and P-by-P-bit ones in the direct path's dot
   product). A rigorous bound E_a on the error of every entry of row a
   (:func:`_row_bounds`) gives an interval around the term; the term is
   kept when both ends of the interval round to the same double. P is
   chosen from the bound of the last row plus 53 bits and a guard. At
   integer s >= 0 the direct path's binomials C(s, b) are exact and 0
   beyond b = s, as are the recurrence path's summands, so the rows of
   either path stop at column s.
2. The same at 2P, then 4P, for the terms still open (Ziv's loop: Ziv,
   ACM TOMS 17(3), 1991; Brent & Zimmermann, Modern Computer
   Arithmetic, ch. 3-4).
3. Exact integers (:func:`_exact_sums`): each term over a common
   denominator, summed by Horner's rule and rounded once. s = 0 starts
   here: every A_a(s) has the factor s, and no interval can certify 0.

All three give the same bits, since each returns the correctly rounded
value of the same rational. For non-real s both paths run in complex
floating point.

Domain checks and the prefactor stay with the callers, as does the
choice between the exact and the float backend.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, inf, prod
from operator import mul
from numbers import Rational
from typing import NamedTuple

from .combinatorics import CachedTriangle
from .report import SeriesReport

PATHS = ("direct", "recurrence")


#: extra passes at doubled precision before the exact tier takes a term
ZIV_DOUBLINGS = 2
#: bits kept beyond the error bound and the 53 of a double
GUARD_BITS = 64


class Side(NamedTuple):
    """One expansion: row stride ``stride``, kernel ``triangle``, whose
    row a holds T[stride*a, b] for b = 0..a (read by the tables alone),
    and the float ``weights`` T[r,b] b!/(r+b)! of the same rows, built
    by the float summand recurrence at s = -1."""

    stride: int
    triangle: CachedTriangle
    weights: CachedTriangle


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


def _float_row(prev: list, d: int, shift) -> list:
    # row a = len(prev) of the summand recurrence in floating point, from
    # row a-1: g[r,b] = (r+b-d)/(r+b) g[r-d,b] + shift[b-1]/(r+b) g[r-d,b-1]
    a = len(prev)
    r = d * a
    return [0] + [x / z * upper + y / z * left for x, y, z, upper, left in zip(
        range(r + 1 - d, r + a + 1 - d), shift,  # r+b-d, shift[b-1]
        range(r + 1, r + a + 1), prev[1:] + [0], prev)]  # r+b, upper, left


def kernel_side(stride: int) -> Side:
    """A side whose exact kernel rows and float weights are built, and
    cached, row by row, each by its own recurrence."""

    def kernel_row(rows, a):  # rows[-1] is row a-1
        return _next_row(rows[-1], rows[-1], a, stride) if a else [1]

    def weight_row(rows, a):  # the summands at s = -1 are (-1)**b w[r,b]
        return _float_row(rows[-1], stride, range(1, a + 1)) if a else [1.0]

    return Side(stride, CachedTriangle(kernel_row), CachedTriangle(weight_row))


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


def _numerator(row: list[int], r: int, q: int) -> int:
    # sum_b row[b] q**(a-b) (r+a)!/(r+b)!, a = len(row) - 1: the sum of
    # row[b]/(q**b (r+b)!) over the common denominator q**a (r+a)!, by
    # Horner's rule with b ascending (one small-by-big product per step)
    num = 0
    for b in range(1, len(row)):
        num = num * ((r + b) * q) + row[b]
    return num


def _exact_sums(d: int, p: int, q: int, n: int):
    """(numerator, denominator) of A_a(p/q) for a = 1..n-1, over the
    common denominator q**a (r+a)!, from M[a,b] = q**b (s)_b T[r,b]."""
    row = [1]
    for a in range(1, n):
        r = d * a
        row = _next_row(row, [(p - j * q) * m for j, m in enumerate(row)], a, d)
        yield _numerator(row, r, q), q**a * factorial(r + a)


def _row_bounds(d: int, p: int, q: int, n: int) -> list[int]:
    """E[a] for a = 0..n-1: a bound on |G[b] - g[r,b] 2**P| over row a
    of :func:`_fixed_rows`, whatever P is.

    Proof. Row 0 is exact (E[0] = 0), and g[r,0] = 0 for r > 0 is exact
    in every later row. Step a computes, for b = 1..a,

        G'[b] = floor(alpha_b G[b] + beta_b G[b-1]),
        alpha_b = (r+b-d)/(r+b),   beta_b = (s-b+1)/(r+b),

    while the exact row obeys the same linear step without the floor.
    The difference is alpha_b e[b] + beta_b e[b-1] plus the floor's own
    error, which lies in (-1, 0]: less than 1, and 0 when the division is
    exact, so the +1 below covers it either way. With |e| <= E[a-1] on
    row a-1 (and e = 0 on the entry b = a that row a-1 lacks), every
    entry of row a errs by less than
    (|alpha_b| + |beta_b|) E[a-1] + 1 <= E[a], where

        E[a] = ceil(max_b (|alpha_b| + |beta_b|) E[a-1]) + 1.

    The maximum over b is at b = 1 or b = a. Write |alpha_b| + |beta_b|
    = f(b)/(q(r+b)) with f(b) = (r+b-d)q + |p-(b-1)q|. While
    (b-1)q <= p, f(b) = (r-d+1)q + p does not depend on b, so the ratio
    falls as b grows. Beyond, the ratio is 2 - ((r+d+1)q + p)/(q(r+b)),
    which rises, since (r+d+1)q + p > 0 for s > -1; at s = -1 (the
    weights) this branch holds for every b >= 1.
    """
    bounds = [0]
    for a in range(1, n):
        r = d * a
        n1, d1 = (r + 1 - d) * q + abs(p), (r + 1) * q
        na, da = (r + a - d) * q + abs(p - (a - 1) * q), (r + a) * q
        num, den = (n1, d1) if n1 * da >= na * d1 else (na, da)
        bounds.append(-(-num * bounds[-1] // den) + 1)
    return bounds


def _fixed_rows(d: int, p: int, q: int, n: int, prec: int, width: float = inf):
    """Rows a = 1..n-1 of G[b] ~ g[r,b] 2**prec at s = p/q, each step of
    the summand recurrence floored; :func:`_row_bounds` bounds the error.
    A row keeps its first ``width`` entries: entry b reads only entries
    b-1 and b of the row before, so the cut changes no kept entry."""
    row = [1 << prec]
    for a in range(1, n):
        r = d * a
        row = [0] + [(x * upper + y * left) // z for x, y, z, upper, left in zip(
            range((r + 1 - d) * q, (r + a + 1 - d) * q, q),  # (r+b-d) q
            range(p, p - a * q, -q),                          # (s-b+1) q
            range((r + 1) * q, (r + a + 1) * q, q),           # (r+b) q
            row[1:] + [0] if a < width else row[1:], row)]
        yield row


def _fixed_binomials(p: int, q: int, n: int, prec: int) -> tuple[list[int], list[int]]:
    """B[b] ~ (-1)**b (s)_b/b! 2**prec at s = p/q for b = 0..n-1, each
    step floored, and bounds[a] >= |B[b] - (-1)**b (s)_b/b! 2**prec| for
    all b <= a, by the argument of :func:`_row_bounds` with one term: the
    floor adds 1 to the bound only when its division is inexact. At
    integer s >= 0 every division is exact, as B[b] = (-1)**b C(s, b)
    2**prec, so every bound is 0 and B[b] = 0 exactly beyond b = s."""
    binom, bounds = [1 << prec], [0]
    err = 0
    for b in range(1, n):
        m = (b - 1) * q - p
        value, rem = divmod(binom[-1] * m, q * b)
        binom.append(value)
        err = -(-abs(m) * err // (q * b)) + (rem != 0)
        bounds.append(max(bounds[-1], err))
    return binom, bounds


def _round_interval(lo: int, hi: int, den: int) -> float | None:
    """The double that every point of [lo/den, hi/den] rounds to, or None
    (den > 0). The ends are compared by bit pattern, since -0.0 == 0.0.
    An interval clear of 0 whose end nearest 0 is beyond the float range
    raises the OverflowError that the exact tier would raise."""
    try:
        lo_float, hi_float = lo / den, hi / den
    except OverflowError:
        if lo > 0 or hi < 0:
            (lo if lo > 0 else hi) / den
        return None
    return lo_float if lo_float.hex() == hi_float.hex() else None


def _fixed_terms(side: Side, p: int, q: int, n: int, path: str, prec: int):
    """A_a(p/q)/(s+r+1) for a = 1..n-1, each the correctly rounded
    float, or None where the interval at precision ``prec`` does not
    round to a single double."""
    d = side.stride
    # at integer s >= 0 both paths keep columns 0..s: the binomials are
    # exact zeros beyond b = s, and so are the summands, whose factor
    # s-b+1 is 0 at b = s+1 (every later entry reads only zeros)
    width = p + 1 if q == 1 and p >= 0 else inf
    if path == "direct":
        binom, binom_err = _fixed_binomials(p, q, n, prec)
        binom_mass = list(accumulate(map(abs, binom)))  # sum_{b<=a} |B[b]|
        # the weight rows are the summand rows at s = -1: (-1)**b w[r,b]
        rows, bounds = _fixed_rows(d, -1, 1, n, prec, width), _row_bounds(d, -1, 1, n)
    else:
        rows, bounds = _fixed_rows(d, p, q, n, prec, width), _row_bounds(d, p, q, n)
    for a, row in enumerate(rows, 1):
        if path == "direct":
            # fixed-point weight W and binomial B with error bounds e_W, e_B:
            # |W B - exact product| <= |W| e_B + |B| e_W + e_W e_B, summed over b
            value, scale = sum(map(mul, row, binom)), 2 * prec
            err = (binom_err[a] * sum(map(abs, row))
                   + bounds[a] * (binom_mass[a] - binom_mass[0] + a * binom_err[a]))
        else:
            value, scale, err = sum(row), prec, a * bounds[a]
        den = (p + (d * a + 1) * q) << scale
        yield _round_interval((value - err) * q, (value + err) * q, den)


def _start_precision(side: Side, p: int, q: int, n: int, path: str) -> int:
    """The first precision of Ziv's loop: the bits of the last row's
    bound on the sum of its n entries, 53 more for a double, a guard, and
    the bits that |s| < 1 takes off every A_a(s), which has the factor s."""
    small = max(0, q.bit_length() - abs(p).bit_length())
    if path == "direct":
        p, q = -1, 1  # the weight rows
    bound = n * _row_bounds(side.stride, p, q, n)[-1]
    return bound.bit_length() + 53 + GUARD_BITS + small


def exact_terms(
    side: Side, s: Fraction, n_terms: int, path: str, pref=None
) -> list[complex]:
    """Terms 0..n_terms-1 of the expansion at rational s, each rounded
    once, by the first tier that certifies it (see the module
    docstring); ``pref`` (a float, or None for no prefactor) scales each
    rounded term."""
    p, q = s.numerator, s.denominator
    inner = [None] * n_terms  # inner[a] = A_a/(s+r+1), rounded, for a >= 1
    todo = range(1, n_terms)
    if p != 0:  # A_a(0) = 0, which no interval certifies
        prec = _start_precision(side, p, q, n_terms, path)
        for _ in range(1 + ZIV_DOUBLINGS):
            if not todo:
                break
            for a, t in enumerate(_fixed_terms(side, p, q, todo[-1] + 1, path, prec), 1):
                if inner[a] is None:
                    inner[a] = t
            todo = [a for a in todo if inner[a] is None]
            prec *= 2
    if todo:
        for a, (num, den) in enumerate(_exact_sums(side.stride, p, q, todo[-1] + 1), 1):
            if inner[a] is None:
                inner[a] = (num * q) / (den * (p + (side.stride * a + 1) * q))
    head = q / (p + q)  # 1/(s+1)
    if pref is not None:
        try:  # the zeta side's rounding order: q, pref*q, then the quotient
            scaled = pref * q / (p + q)
        except OverflowError:  # q is beyond the float range
            scaled = inf
        head = scaled if scaled < inf else pref * head
    terms = [head] + [t if pref is None else pref * t for t in inner[1:]]
    return [complex(t) for t in terms]


def _binomials(s: complex, n: int) -> list[complex]:
    # binom[b] = (s)_b / b!, numerically tame for all b
    binom = [1.0 + 0j] * n
    for b in range(1, n):
        binom[b] = binom[b - 1] * (s - b + 1) / b
    return binom


def _float_coeff(side: Side, binom: list[complex], a: int) -> complex:
    w = side.weights.row(a)
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
        side.weights.ensure(n_terms - 1)
        binom = _binomials(s, n_terms)
    else:
        shift = [s - b + 1 for b in range(1, n_terms)]
    row = [1.0 + 0j]
    for a in range(1, n_terms):
        r = d * a
        if path == "direct":
            inner = _float_coeff(side, binom, a)
        else:
            row = _float_row(row, d, shift)
            inner = sum(row[:0:-1])  # smallest summands first
        den = s + r + 1
        terms.append(inner / den if pref is None else pref * inner / den)
    return terms


def coefficients(side: Side, s, order: int) -> list:
    """A_0(s)..A_order(s): exact Fractions for rational s, complex otherwise."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    frac = as_fraction(s)
    if frac is not None:
        sums = _exact_sums(side.stride, frac.numerator, frac.denominator, order + 1)
        return [Fraction(1)] + [Fraction(num, den) for num, den in sums]
    binom = _binomials(complex(s), order + 1)
    return [1 + 0j] + [_float_coeff(side, binom, a) for a in range(1, order + 1)]


def running_sums(terms: list[complex]) -> list[complex]:
    return list(accumulate(terms, initial=0j))[1:]


def series_report(s, path: str, terms: list[complex], reference: complex) -> SeriesReport:
    partial_sum = sum(terms)
    abs_error = abs(partial_sum - reference)
    rel_error = abs_error / abs(reference) if reference else float("inf")
    # positional, in field order: from keywords the record costs ~0.2 us more
    return SeriesReport(complex(s), len(terms), path, partial_sum, reference,
                        abs_error, rel_error, [abs(t) for t in terms])
