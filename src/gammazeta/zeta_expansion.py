"""Factorial series expansion of zeta(s)(1 - 2**(1-s))Gamma(s) and its
coefficient triangle.

For Re(s) > 0 the integral of t**(s-1)/(1+e^t) over (0, inf) equals
eta(s)Gamma(s) where eta is the alternating zeta series. Substituting
x = 1/(1+e^t) and expanding (log((1-x)/x))**s around x = 1/2 through

    log((1-x)/x) = 2(1-2x) (1 + (1-2x)**2/3 + (1-2x)**4/5 + ...)

gives, integrating termwise,

    eta(s) Gamma(s) = 2**(s-1)/s * ( 1/(s+1)
        + sum_{m>=1} 1/(s+2m+1) * sum_{k=1..m} b[2m,k] (s)_k / (2m+k)! ).

Only even powers of (1-2x) survive (the inner series is even in 1-2x),
so the coefficient triangle b vanishes on odd rows and the expansion is
indexed by even orders 2m throughout. The integers b[alpha,beta] are an
alternating binomial transform of the Mittag-Leffler triangle a[n,k]:

    b[alpha,beta] = sum_j (-1)**j C(alpha+beta, j)
                    a[alpha+beta-j, beta-j] / 2**(beta-j)

(exact because 2**k divides a[n,k]), and satisfy the recurrence

    b[alpha,beta] = (alpha+beta-2)(alpha+beta-1)
                    (b[alpha-2,beta] + b[alpha-2,beta-1]),   b[0,0] = 1.

A second evaluation path propagates the summands
z[m,k] = b[m,k](s)_k/(m+k)! directly via

    z[m,k] = (m+k-2)/(m+k) z[m-2,k] + (s-k+1)/(m+k) z[m-2,k-1]

at rational s.

Backends mirror the Gamma evaluator: correctly rounded terms for
rational s (certified fixed point, exact integers as the last resort);
at complex s both paths take the inner sum of term m as the coefficient
of u**m in the series power (1 + u/3 + u**2/5 + ...)**s, in complex
floating point, accurate at depth. The comparison target is always the
entire product eta(s)Gamma(s), never zeta alone, so s = 1 needs no
special casing.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf, isfinite

from . import bell, factorial_series as fs, mittag_leffler, oracles
from .combinatorics import binomial
from .report import DefectError, DomainError, SeriesReport

#: the zeta side of the factorial-series engine (row stride 2); even
#: rows only: row m of its triangle holds b[2m, k] for k = 0..m
SIDE = fs.kernel_side(2)


def coeff(alpha: int, beta: int) -> int:
    """Triangle entry b[alpha, beta] (recurrence route).

    Odd rows are identically zero, as is beta > alpha/2 on even rows.
    """
    if alpha % 2 == 1:
        return 0
    return SIDE.triangle.entry(alpha // 2, beta)  # zero for negative indices


def coeff_direct(alpha: int, beta: int) -> int:
    """b[alpha, beta] from the alternating binomial transform of the
    Mittag-Leffler triangle (the definition route).

    Raises DefectError if any division by 2**(beta-j) is inexact, which
    would falsify the divisibility structure of a[n,k].
    """
    if alpha < 0 or beta < 0:
        raise ValueError("indices must be nonnegative")
    acc = Fraction(0)
    for j in range(beta + 1):
        a = mittag_leffler.coeff(alpha + beta - j, beta - j)
        if a == 0:
            continue
        term = Fraction(binomial(alpha + beta, j) * a, 2 ** (beta - j))
        acc += term if j % 2 == 0 else -term
    if acc.denominator != 1:
        raise DefectError(
            f"b[{alpha},{beta}]: inexact division, got {acc}; "
            "2**k should divide a[n,k]"
        )
    return acc.numerator


def coeff_table(max_row: int) -> list[list[int]]:
    """Rows 0..max_row; row alpha carries entries beta = 0..alpha//2 + 1.

    The extra trailing entry makes the vanishing of the column after the
    last nonzero one visible, matching how the triangle is tabulated.
    """
    even = SIDE.triangle.rows(max_row // 2)  # even[m] = b[2m, 0..m]
    return [even[a // 2] + [0] if a % 2 == 0 else [0] * (a // 2 + 2)
            for a in range(max_row + 1)]


def log_ratio_bell_value(alpha: int, beta: int) -> Fraction:
    """Exact Bell value B_{alpha,beta}(0, 2!/3, 0, 4!/5, ...) as
    alpha! * b[alpha,beta] / (alpha+beta)!."""
    if not 1 <= beta <= alpha:
        raise ValueError("requires 1 <= beta <= alpha")
    return Fraction(factorial(alpha) * coeff(alpha, beta), factorial(alpha + beta))


def _checked(s):
    # the expansion's own checks on s, asked before the oracle and the
    # terms; s as a Fraction (None at complex s), s as a float or complex,
    # and the prefactor 2**(s-1)/s
    frac = fs.as_fraction(s)
    if s.real <= 0:  # on the exact value: complex(1e-400) is 0
        raise DomainError("expansion requires Re(s) > 0")
    sf = complex(s) if frac is None else float(frac)
    pref = 2 ** (sf - 1) / sf if sf else inf
    if not (isfinite(pref.real) and isfinite(pref.imag)):  # |s| below about 1e-308
        raise OverflowError("the prefactor 2**(s-1)/s is beyond the float range")
    return frac, sf, pref


def expansion_terms(s, n_terms: int, path: str = "direct") -> list[complex]:
    """First ``n_terms`` terms (m = 0..n_terms-1) of the expansion of
    eta(s)Gamma(s); term 0 is 2**(s-1)/s * 1/(s+1).

    Requires Re(s) > 0 (the validity region of the underlying integral).
    """
    fs.check_request(n_terms, path)
    frac, sf, pref = _checked(s)
    if frac is None:
        return fs.float_terms(SIDE, sf, n_terms, pref)
    return fs.exact_terms(SIDE, frac, n_terms, path, pref)


def partial_sums(s, n_terms: int, path: str = "direct") -> list[complex]:
    """Running partial sums of :func:`expansion_terms`."""
    return fs.running_sums(expansion_terms(s, n_terms, path))


def log_ratio_coeffs(r, order: int) -> bell.TruncatedSeries:
    """Coefficients of (1-2x)**(2n) in (1 + (1-2x)**2/3 + ...)**r.

    Entry n of the result multiplies (1-2x)**(2n); entry 0 is 1. Exact
    Fractions for rational r, complex otherwise.
    """
    return bell.TruncatedSeries(fs.coefficients(SIDE, r, order))


def reference_value(s) -> complex:
    """eta(s)Gamma(s), the value the expansion converges to, at an s that
    passes the expansion's own checks."""
    _checked(s)
    return oracles.eta_ref(complex(s)) * oracles.gamma_ref(complex(s))


def evaluate(s, n_terms: int, path: str = "direct") -> SeriesReport:
    """Evaluate the truncated expansion and compare against eta(s)Gamma(s),
    asked first: an s that the oracles refuse costs no terms."""
    reference = reference_value(s)
    return fs.series_report(s, path, expansion_terms(s, n_terms, path), reference)
