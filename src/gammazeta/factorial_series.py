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
K of the series power that every complex s runs.

At rational s the "direct" path combines the kernel with falling
factorials, as A_a(s) = sum_b w[r,b] (s)_b/b! with the s-independent
weights w[r,b] = T[r,b] b!/(r+b)!. The "recurrence" path propagates the
summands g[r,b] = T[r,b](s)_b/(r+b)! by

    g[r,b] = (r+b-d)/(r+b) g[r-d,b] + (s-b+1)/(r+b) g[r-d,b-1].

At s = -1 the summands are (-1)**b w[r,b], so the weights obey the same
recurrence, w[r,b] = ((r+b-d) w[r-d,b] + b w[r-d,b-1])/(r+b), and the
fixed-point tier below builds them per call at its precision, without
the triangle.

At complex s both paths take A_a(s) as a series power,
A_a(s) = [t**a] L(t)**s with L = sum_k t**k/(dk+1), the paper's
potential polynomials. B = L**s = exp(s log L) gives B' = s (L'/L) B,
so its coefficients obey

    a b_a = s sum_{k=1..a} K_k b_{a-k},    b_0 = 1,

with K_k = [t**(k-1)] L'/L real, positive and independent of s: the
exponential form of the power recurrence (Knuth, TAOCP vol. 2, 4.7).
Each term costs one dot product over the earlier coefficients, whereas
the weight sums and the summands g[r,b] grow far beyond A_a(s) and
cancel in floating point (at s = 1+i, N = 400, to partial sums near
1e15). Against a 200-bit reference every term of this route lies within
2e-14 relative for |Im s| <= 20 and N <= 150, and within 3e-15 at
N = 1000 at s = 0.5+3i and 2+5i. The float weights K are cached in
``Side.log_derivative``, built from K_n = n L_n - sum_j L_j K_{n-j}.
Each call turns them into complex(K, 0.0) once: a float times a complex
is promoted to exactly that product, so the bits stay those of real K.

For rational s = p/q each term A_a(s)/(s+r+1) comes out correctly
rounded, from the first of two tiers that can vouch for it:

1. Certified fixed point (every s but 0), in one pass. Every value is an
   integer scaled by 2**P and each step a floor division, so only
   small-by-P-bit products appear: the direct path sums each weight row
   by Horner's rule over the exact ratios of successive binomials
   (:func:`_horner`). A rigorous bound on the error of each row's sum
   (:func:`_row_bounds`, :func:`_term_bounds`) gives an interval around
   the term; the term is kept when both ends of the interval round to
   the same double. P is chosen from the bound of the last row plus 53
   bits and a guard. At integer s >= 0 the binomials C(s, b) and the
   summands vanish beyond b = s, so the rows of either path stop at
   column s.
2. Exact integers (:func:`_exact_sums`) for every term the pass leaves
   open: each term over a common denominator, summed by Horner's rule
   and rounded once. s = 0 starts here: every A_a(s) has the factor s,
   and no interval can certify 0.

Both give the same bits, since each returns the correctly rounded value
of the same rational. For non-real s both paths run the series power in
complex floating point, as above.

Domain checks and the prefactor stay with the callers, as does the
choice between the exact and the float backend.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import accumulate
from math import factorial, fsum, inf, prod
from numbers import Rational
from operator import mul, truediv
from typing import NamedTuple

from .combinatorics import CachedSequence, CachedTriangle
from .report import SeriesReport

PATHS = ("direct", "recurrence")


#: bits kept beyond the error bound and the 53 of a double
GUARD_BITS = 64


class Side(NamedTuple):
    """One expansion: row stride ``stride``, kernel ``triangle``, whose
    row a holds T[stride*a, b] for b = 0..a (read by the tables alone),
    and the float coefficients ``log_derivative`` K_k = [t**(k-1)] L'/L
    of the series power's base (entry k holds K_k; K_0 = 0)."""

    stride: int
    triangle: CachedTriangle
    log_derivative: CachedSequence


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


def _log_weight(ks: list[float], n: int, d: int) -> float:
    # K_n = n L_n - sum_{j=1..n-1} L_j K_{n-j}, L_j = 1/(dj+1), from ks =
    # K_0..K_{n-1}: the coefficient of t**(n-1) in L' = L (L'/L). Each
    # quotient is rounded once and fsum rounds their sum once
    return n / (d * n + 1) - fsum(map(truediv, ks[:0:-1], range(d + 1, d * n + 1, d)))


def kernel_side(stride: int) -> Side:
    """A side whose exact kernel rows and K are built, and cached, entry
    by entry, each by its own recurrence."""

    def kernel_row(rows, a):  # rows[-1] is row a-1
        return _next_row(rows[-1], rows[-1], a, stride) if a else [1]

    def log_weight(ks, n):
        return _log_weight(ks, n, stride)

    return Side(stride, CachedTriangle(kernel_row), CachedSequence(log_weight))


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


def _horner(row: list[int], p: int, q: int) -> int:
    """q D, D ~ sum_b row[b] beta_b with beta_b = (-1)**b (s)_b/b! at s = p/q:
    h <- row[b] + floor(h m[b+1]/(q(b+1))) from the last b down to b = 1,
    m[b] = (b-1)q - p (beta_b/beta_{b-1} = m[b]/(qb)), and q D = h m[1]."""
    h, top = 0, len(row) - 1
    for w, m, z in zip(row[:0:-1], range(top * q - p, -p, -q), range(top * q + q, q, -q)):
        h = w + h * m // z
    return -p * h


def _term_bounds(bounds: list[int], p: int, q: int, path: str) -> list[int]:
    """err[a] >= |V - A_a(s) 2**P|, whatever P, for the value V that
    :func:`_fixed_terms` takes from row a, whose entries err by at most
    E[a] = ``bounds[a]``. The recurrence path sums a entries. Unrolled,
    the D of :func:`_horner` on a weight row W is sum_b beta_b (W[b] + f_b),
    f_b in (-1, 0] the error of step b's floor, so it errs by at most
    (E[a] + 1) sum_{b<=a} |beta_b|; the running product of the same ratios,
    rounded up, bounds |beta_b| 2**GUARD_BITS, and is 0 where beta_b is."""
    if path == "recurrence":
        return [a * e for a, e in enumerate(bounds)]
    mass, beta = [0], 1 << GUARD_BITS
    for b in range(1, len(bounds)):
        beta = -(-beta * abs((b - 1) * q - p) // (q * b))
        mass.append(mass[-1] + beta)
    return [-(-(e + 1) * m >> GUARD_BITS) for e, m in zip(bounds, mass)]


def _fixed_terms(side: Side, p: int, q: int, n: int, path: str, prec: int,
                 rows_s: tuple[int, int], errs: list[int]):
    """A_a(p/q)/(s+r+1) for a = 1..n-1 from the summand rows at
    ``rows_s``, each the correctly rounded float, or None where the
    interval at precision ``prec`` and of radius ``errs[a]`` does not
    round to one double."""
    # at integer s >= 0 both paths keep columns 0..s: beta_b = 0 beyond
    # b = s, and so are the summands (every later entry reads only zeros)
    width = p + 1 if q == 1 and p >= 0 else inf
    d, rows = side.stride, _fixed_rows(side.stride, *rows_s, n, prec, width)
    for a, row in enumerate(rows, 1):
        value = _horner(row, p, q) if path == "direct" else q * sum(row)  # q D
        den = (p + (d * a + 1) * q) << prec
        yield _round_interval(value - q * errs[a], value + q * errs[a], den)


def _start_precision(row_bounds: list[int], p: int, q: int) -> int:
    """The precision of the fixed-point pass: the bits of the last row's
    bound on the sum of its n entries, 53 more for a double, a guard, and
    the bits that |s| < 1 takes off every A_a(s), which has the factor s."""
    small = max(0, q.bit_length() - abs(p).bit_length())
    return (len(row_bounds) * row_bounds[-1]).bit_length() + 53 + GUARD_BITS + small


def exact_terms(
    side: Side, s: Fraction, n_terms: int, path: str, pref=None
) -> list[complex]:
    """Terms 0..n_terms-1 of the expansion at rational s, each rounded
    once, by the first tier that certifies it (see the module
    docstring); ``pref`` (a float, or None for no prefactor) scales each
    rounded term."""
    p, q = s.numerator, s.denominator
    inner = [None] * n_terms  # inner[a] = A_a/(s+r+1), rounded, for a >= 1
    if p != 0:  # A_a(0) = 0, which no interval certifies
        # the direct path runs the weight rows: the summand rows at s = -1
        rows_s = (-1, 1) if path == "direct" else (p, q)
        bounds = _row_bounds(side.stride, *rows_s, n_terms)
        prec, errs = _start_precision(bounds, p, q), _term_bounds(bounds, p, q, path)
        inner[1:] = _fixed_terms(side, p, q, n_terms, path, prec, rows_s, errs)
    open_terms = [a for a in range(1, n_terms) if inner[a] is None]
    if open_terms:
        for a, (num, den) in enumerate(_exact_sums(side.stride, p, q, open_terms[-1] + 1), 1):
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


def _power_coeffs(side: Side, s: complex, n: int) -> list[complex]:
    """A_1(s)..A_{n-1}(s), the coefficients b_a of B = L**s, from
    B' = s (L'/L) B: a b_a = s sum_{k=1..a} K_k b_{a-k}. Raises
    OverflowError where the series power leaves the float range."""
    # K_1..K_{n-1} as complex(K, 0.0), which is what complex promotes a
    # float K to after float.__mul__ fails: the same products, the same
    # bits, without that failed dispatch in every product
    ks = list(map(complex, side.log_derivative.prefix(n)[1:]))
    rb = [1 + 0j]  # b_{a-1}, ..., b_0
    for a in range(1, n):
        # the builtin sum adds complex numbers in order on every Python
        # from 3.10 to 3.13
        rb.insert(0, s * sum(map(mul, ks, rb)) / a)
    # an inf or nan coefficient enters every later dot product, so the
    # last coefficient is finite only if all of them are
    if not cmath.isfinite(rb[0]):
        raise OverflowError(f"the series power at s = {s!r} is beyond the float range")
    return rb[-2::-1]


def float_terms(side: Side, s: complex, n_terms: int, pref=None) -> list[complex]:
    """Terms 0..n_terms-1 of the expansion at complex s, from the series
    power in floating point (either path); ``pref`` (complex, or None for
    no prefactor) multiplies each inner sum before its pole factor
    divides it. Raises OverflowError where the series power leaves the
    float range."""
    d = side.stride
    coeffs = _power_coeffs(side, s, n_terms)
    if pref is None:
        return [1 / (s + 1)] + [c / (s + d * a + 1) for a, c in enumerate(coeffs, 1)]
    return [pref / (s + 1)] + [pref * c / (s + d * a + 1) for a, c in enumerate(coeffs, 1)]


def coefficients(side: Side, s, order: int) -> list:
    """A_0(s)..A_order(s): exact Fractions for rational s, complex otherwise."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    frac = as_fraction(s)
    if frac is not None:
        sums = _exact_sums(side.stride, frac.numerator, frac.denominator, order + 1)
        return [Fraction(1)] + [Fraction(num, den) for num, den in sums]
    return [1 + 0j] + _power_coeffs(side, complex(s), order + 1)


def running_sums(terms: list[complex]) -> list[complex]:
    return list(accumulate(terms, initial=0j))[1:]


def series_report(s, path: str, terms: list[complex], reference: complex) -> SeriesReport:
    partial_sum = sum(terms)
    abs_error = abs(partial_sum - reference)
    rel_error = abs_error / abs(reference) if reference else float("inf")
    # positional, in field order: from keywords the record costs ~0.2 us more
    return SeriesReport(complex(s), len(terms), path, partial_sum, reference,
                        abs_error, rel_error, [abs(t) for t in terms])
