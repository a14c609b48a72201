"""Named verification suites over every identity the package upholds.

Each check is a function of (depth, rng) returning None on success or a
short witness string describing the first failure. Suites group checks
by subject: ``@_line(suite)`` adds each check to ``SUITES`` where it is
defined, so a suite runs its checks in the order of this file.
``run_suite`` executes them and reports one line per check.

Exact claims are checked in exact arithmetic; tolerances appear only
where complex floating point is intrinsic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import factorial, pi
from typing import Callable, NamedTuple

from . import (
    bell,
    combinatorics as comb,
    derivative_polynomials as dpoly,
    gamma_expansion,
    mittag_leffler,
    oracles,
    zeta_expansion,
)
from .polynomials import GaussianRational, Polynomial
from .report import DEFAULT_SEED, VERIFY_SUITES


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    witness: str | None


#: suite -> its (name, check) lines in run order, filled by ``_line``
SUITES: dict[str, list[tuple[str, Callable]]] = {suite: [] for suite in VERIFY_SUITES}


def _line(suite: str, name: str | None = None) -> Callable:
    """Append the decorated check to ``suite`` under ``name``, by default
    its function name without ``check_``."""
    def register(check: Callable) -> Callable:
        SUITES[suite].append((name or check.__name__.removeprefix("check_"), check))
        return check
    return register


def _bell_sequence(length: int, stride: int) -> list[Fraction]:
    # x_m = m!/(m+1) where stride divides m, else 0: the sequence behind
    # the Gamma-side triangle (stride 1) or the zeta side's (stride 2)
    return [Fraction(factorial(m), m + 1) if m % stride == 0 else Fraction(0)
            for m in range(1, length + 1)]


# Per-side checks take the side's functions first; ``partial`` binds them,
# and ``_line`` names each bound check, which has no ``__name__``.

def _bell_identity(bell_value: Callable, stride: int, depth: int, rng) -> str | None:
    # bell_value(a, b) is B_{a,b} of the side's Bell sequence
    xs = _bell_sequence(min(depth, 10) + 1, stride)
    for a in range(1, min(depth, 10) + 1):
        for b in range(1, a + 1):
            lhs = bell_value(a, b)
            rhs = bell.partial_bell(a, b, xs)
            if lhs != rhs:
                return f"Bell identity fails at ({a},{b}): {lhs} != {rhs}"
    return None


def _power_base(stride: int, order: int) -> bell.TruncatedSeries:
    # the series 1 + sum_m t**m / (stride m + 1) through t**order, whose
    # powers give the side's A_a(s)
    return bell.TruncatedSeries([Fraction(1, stride * m + 1) for m in range(order + 1)])


def _path_equivalence(module, points, n_terms: int, depth: int, rng) -> str | None:
    for s in points:
        if isinstance(s, complex):
            # both paths run one float route at complex s, so each A_a(s)
            # they give, terms[a] (s+da+1) / (terms[0] (s+1)) whatever the
            # prefactor, is held against Miller's recurrence on the base
            d = module.SIDE.stride
            power = bell.series_pow(_power_base(d, n_terms - 1), s).coeffs
            for path in ("direct", "recurrence"):
                terms = module.expansion_terms(s, n_terms, path)
                for a, (t, want) in enumerate(zip(terms, power)):
                    got = t * (s + d * a + 1) / (terms[0] * (s + 1))
                    if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                        return (f"{path} A_{a}(s) off the series power at s={s}: "
                                f"{abs(got - want):.2e}")
            continue
        # real s runs the exact backend, whose paths agree bit for bit
        direct = module.partial_sums(s, n_terms, "direct")
        rec = module.partial_sums(s, n_terms, "recurrence")
        for n, (d, r) in enumerate(zip(direct, rec), start=1):
            if d != r:
                return f"paths diverge at s={s}, {n} terms: {abs(d - r):.2e}"
    return None


def _integrand_power_identity(
    coeffs: Callable, stride: int, powers: tuple, order: int, series: str, depth: int, rng
) -> str | None:
    # brace coefficients equal the exact powers, integer and fractional,
    # of the side's base series
    base = _power_base(stride, order)
    for r in powers:
        if tuple(coeffs(r, order).coeffs) != bell.series_pow(base, r).coeffs:
            return f"power {r} of the {series} series disagrees with brace coefficients"
    return None


# ---------------------------------------------------------------- stirling

@_line("stirling")
def check_stirling1_row_sums(depth: int, rng) -> str | None:
    for n in range(depth + 1):
        total = sum(comb.stirling1(n, k) for k in range(n + 1))
        if total != factorial(n):
            return f"sum of row {n} is {total}, expected {n}!"
    return None


@_line("stirling")
def check_eulerian_row_sums_and_symmetry(depth: int, rng) -> str | None:
    for n in range(1, depth + 1):
        row = [comb.eulerian(n, k) for k in range(n)]
        if sum(row) != factorial(n):
            return f"row {n} sums to {sum(row)}, expected {n}!"
        if row != row[::-1]:
            return f"row {n} is not symmetric"
    return None


@_line("stirling")
def check_stirling1_telescoped(depth: int, rng) -> str | None:
    # s1(n,k) = sum_{j=1..k} (n-j) s1(n-j, k+1-j) for n >= k+2
    for n in range(2, depth + 1):
        for k in range(0, n - 1):  # k = 0 checks the empty-sum boundary
            total = sum(
                (n - j) * comb.stirling1(n - j, k + 1 - j) for j in range(1, k + 1)
            )
            if total != comb.stirling1(n, k):
                return f"telescoped sum fails at (n,k)=({n},{k})"
    return None


@_line("stirling")
def check_stirling1_generating_function(depth: int, rng) -> str | None:
    # coefficient of t^n in (1-t)^(-u) equals sum_k s1(n,k) u^k / n!
    order = 12
    for u in (1, 2, 3):
        coeff = Fraction(1)
        for n in range(1, order + 1):
            coeff = coeff * Fraction(u + n - 1, n)  # C(u+n-1, n)
            direct = Fraction(
                sum(comb.stirling1(n, k) * u**k for k in range(1, n + 1)),
                factorial(n),
            )
            if coeff != direct:
                return f"generating function fails at u={u}, n={n}"
    return None


@_line("stirling")
def check_rising_equals_shifted_falling(depth: int, rng) -> str | None:
    # both sides are polynomials of degree k <= 10 in s, so equality at
    # eleven distinct rationals is equality everywhere
    den = rng.randint(1, 30)
    for num in rng.sample(range(-90, 91), 11):
        s = Fraction(num, den)
        for k in range(11):
            if comb.rising_factorial(s, k) != comb.falling_factorial(s + k - 1, k):
                return f"mismatch at s={s}, k={k}"
    return None


# -------------------------------------------------------------------- bell

@_line("bell")
def check_partial_bell_boundaries(depth: int, rng) -> str | None:
    xs = _bell_sequence(14, 1)
    for n in range(1, 13):
        if bell.partial_bell(n, 1, xs) != xs[n - 1]:
            return f"B({n},1) != x_{n}"
        if bell.partial_bell(n, n, xs) != xs[0] ** n:
            return f"B({n},{n}) != x_1^{n}"
    return None


@_line("bell")
def check_partial_bell_vs_enumeration(depth: int, rng) -> str | None:
    xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
    for n in range(1, 8):
        for k in range(1, n + 1):
            if bell.partial_bell(n, k, xs) != bell.bell_by_partitions(n, k, xs):
                return f"recurrence vs enumeration differ at ({n},{k})"
    return None


@_line("bell")
def check_series_pow_integer_powers(depth: int, rng) -> str | None:
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(8)
    ]
    base = bell.TruncatedSeries(coeffs)
    for r in (2, 3, 4):
        expected = base
        for _ in range(r - 1):
            expected = expected * base
        if bell.series_pow(base, r) != expected:
            return f"series_pow disagrees with repeated product at r={r}"
    return None


@_line("bell")
def check_series_pow_roundtrip(depth: int, rng) -> str | None:
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(-3, 3), rng.randint(2, 7)) for _ in range(8)
    ]
    base = bell.TruncatedSeries(coeffs)
    for r in (2, 3):
        back = bell.series_pow(bell.series_pow(base, r), Fraction(1, r))
        if back != base:
            return f"roundtrip r={r} does not return the base"
    return None


@_line("bell")
def check_potential_poly_squared_series(depth: int, rng) -> str | None:
    # r=2: potential polynomial equals the EGF coefficient of the squared series
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(4)
    ]
    base = bell.TruncatedSeries(coeffs)
    squared = base * base
    gs = base.egf_coefficients()
    for n in range(1, 5):
        expected = factorial(n) * squared.coeffs[n]
        got = bell.potential_poly(n, 2, gs)
        if got != expected:
            return f"potential poly r=2 fails at n={n}: {got} != {expected}"
    return None


# ----------------------------------------------------------------------- c

@_line("c")
def check_c_direct_equals_recurrence(depth: int, rng) -> str | None:
    for a in range(depth + 1):
        for b in range(a + 2):
            if gamma_expansion.coeff_direct(a, b) != gamma_expansion.coeff(a, b):
                return f"routes disagree at ({a},{b})"
    return None


@_line("c")
def check_c_diagonal_double_factorial(depth: int, rng) -> str | None:
    for a in range(min(depth, 12) + 1):
        if gamma_expansion.coeff(a, a) != comb.double_factorial_odd(a):
            return f"diagonal law fails at {a}"
    return None


@_line("c")
def check_c_first_column_factorial(depth: int, rng) -> str | None:
    for a in range(1, min(depth, 12) + 1):
        if gamma_expansion.coeff(a, 1) != factorial(a):
            return f"first column fails at {a}"
    return None


check_c_bell_identity = _line("c", "c_bell_identity")(
    partial(_bell_identity, gamma_expansion.log_series_bell_value, 1))
check_gamma_path_equivalence = _line("c", "gamma_path_equivalence")(
    partial(_path_equivalence, gamma_expansion, (0.5, 1 + 1j, 2.3), 50))
check_gamma_integrand_power_identity = _line("c", "gamma_integrand_power_identity")(partial(
    _integrand_power_identity, gamma_expansion.integrand_coeffs, 1, (3, Fraction(1, 2)), 10,
    "shifted-log",
))


@_line("c")
def check_gamma_known_values(depth: int, rng) -> str | None:
    if abs(sum(gamma_expansion.expansion_terms(0.0, 8)) - 1.0) != 0.0:
        return "s=0 should collapse to exactly 1"
    rep50 = gamma_expansion.evaluate(1.0, 50)
    rep200 = gamma_expansion.evaluate(1.0, 200)
    if not rep200.rel_error < rep50.rel_error:
        return "error vs Gamma(2) failed to shrink between 50 and 200 terms"
    return None


# ----------------------------------------------------------------------- ml

@_line("ml")
def check_ml_table_equals_telescoped(depth: int, rng) -> str | None:
    for n in range(2, depth + 1):
        for k in range(1, n + 1):
            if mittag_leffler.coeff_telescoped(n, k) != mittag_leffler.coeff(n, k):
                return f"telescoped route fails at ({n},{k})"
    return None


@_line("ml")
def check_ml_parity_and_boundaries(depth: int, rng) -> str | None:
    # a[n,k] = 0 iff n-k odd (k >= 1); column 0 vanishes for n >= 1
    for n in range(depth + 1):
        if n >= 1 and mittag_leffler.coeff(n, 0) != 0:
            return f"a[{n},0] != 0"
        for k in range(1, n + 1):
            value = mittag_leffler.coeff(n, k)
            if (n - k) % 2 == 1 and value != 0:
                return f"a[{n},{k}] should vanish (odd gap)"
            if (n - k) % 2 == 0 and value == 0:
                return f"a[{n},{k}] vanishes unexpectedly"
    return None


@_line("ml")
def check_ml_diagonal_and_divisibility(depth: int, rng) -> str | None:
    for n in range(depth + 1):
        if mittag_leffler.coeff(n, n) != 2**n:
            return f"a[{n},{n}] != 2^{n}"
        for k in range(n + 1):
            if mittag_leffler.coeff(n, k) % (2**k) != 0:
                return f"2^{k} does not divide a[{n},{k}]"
    return None


@_line("ml")
def check_ml_generating_function(depth: int, rng) -> str | None:
    for n in range(min(depth, 10) + 1):
        lhs = mittag_leffler.ml_poly_from_generating_function(n)
        if lhs != mittag_leffler.ml_poly(n):
            return f"generating-function route fails at n={n}"
    return None


@_line("ml")
def check_ml_bateman_recurrence(depth: int, rng) -> str | None:
    # n g_n = (n-2) g_{n-2} + 2x g_{n-1}, g_n = M_n/n!, exact in Fractions
    two_x = Polynomial((0, 2))
    for n in range(2, 13):
        gn = mittag_leffler.ml_poly(n).scale(Fraction(1, factorial(n)))
        gn1 = mittag_leffler.ml_poly(n - 1).scale(Fraction(1, factorial(n - 1)))
        gn2 = mittag_leffler.ml_poly(n - 2).scale(Fraction(1, factorial(n - 2)))
        if gn.scale(n) != gn2.scale(n - 2) + two_x * gn1:
            return f"normalized recurrence fails at n={n}"
    return None


# ----------------------------------------------------------------------- b

@_line("b")
def check_b_direct_equals_recurrence(depth: int, rng) -> str | None:
    for a in range(min(depth, 20) + 1):
        for b in range(a // 2 + 2):
            if zeta_expansion.coeff_direct(a, b) != zeta_expansion.coeff(a, b):
                return f"routes disagree at ({a},{b})"
    return None


@_line("b")
def check_b_first_column(depth: int, rng) -> str | None:
    for n in range(1, min(depth, 8) + 1):
        if zeta_expansion.coeff(2 * n, 1) != factorial(2 * n):
            return f"b[{2 * n},1] != (2n)!"
    return None


check_b_bell_identity = _line("b", "b_bell_identity")(
    partial(_bell_identity, zeta_expansion.log_ratio_bell_value, 2))
check_zeta_path_equivalence = _line("b", "zeta_path_equivalence")(
    partial(_path_equivalence, zeta_expansion, (0.5, 1.0, 2 + 1j), 40))
check_zeta_integrand_power_identity = _line("b", "zeta_integrand_power_identity")(partial(
    _integrand_power_identity, zeta_expansion.log_ratio_coeffs, 2, (2, Fraction(3, 4)), 5,
    "even log",
))


@_line("b")
def check_zeta_target_convergence(depth: int, rng) -> str | None:
    for s in (0.75, 2.0):
        rep40 = zeta_expansion.evaluate(s, 40)
        rep160 = zeta_expansion.evaluate(s, 160)
        if not rep160.rel_error < rep40.rel_error:
            return f"error vs eta(s)Gamma(s) failed to shrink at s={s}"
        tail = rep160.term_magnitudes[8:]
        if not all(b < a for a, b in zip(tail, tail[1:])):
            return f"term magnitudes not eventually decreasing at s={s}"
    return None


# --------------------------------------------------------------------- poly

@_line("poly")
def check_q_closed_forms(depth: int, rng) -> str | None:
    # reduced_polynomial checks x(x-1) P_{n-2} against the Stirling form
    # of Q_n (a DefectError); this pins the product derivative_polynomial returns
    for n in range(2, depth + 1):
        if dpoly.derivative_polynomial(n) != dpoly._q_stirling(n):
            return f"Q_{n} differs from its Stirling form"
    return None


_RICCATI_CASES = (
    (1, 0, 1),  # logistic decay: x' = x^2 - x
    (1, GaussianRational(0, 1), GaussianRational(0, -1)),  # tan: x' = x^2 + 1
    (-1, 1, -1),  # tanh: x' = 1 - x^2
)


@_line("poly")
def check_riccati_chain(depth: int, rng) -> str | None:
    # x' is the equation's right side, and x^(n+1) is x^(n) differentiated
    # times x', so the chain pins every riccati_derivative(n, ...)
    for a, alpha, beta in _RICCATI_CASES:
        rhs_poly = Polynomial((-alpha, 1)) * Polynomial((-beta, 1))
        rhs_poly = rhs_poly.scale(a)
        current = dpoly.riccati_derivative(1, a, alpha, beta)
        if current != rhs_poly:
            return f"x' differs from a(x-alpha)(x-beta) in the equation with a={a}"
        for n in range(1, min(depth, 12) + 1):
            nxt = dpoly.riccati_derivative(n + 1, a, alpha, beta)
            if nxt != current.derivative() * rhs_poly:
                return f"chain rule fails at n={n}, equation with a={a}"
            current = nxt
    return None


@_line("poly")
def check_root_counts(depth: int, rng) -> str | None:
    # P_n changes sign (or vanishes) across each of n disjoint brackets
    # inside (0,1), so it has n distinct roots there: all the roots of a
    # degree-n polynomial, each simple. Exact values at the Fraction ends.
    for n in range(1, min(depth, 12) + 1):
        p = dpoly.reduced_polynomial(n)
        brackets = dpoly.reduced_brackets(n)
        if len(brackets) != n:
            return f"expected {n} brackets of P_{n}, found {len(brackets)}"
        right = 0  # right end of the bracket before
        for i, (lo, hi) in enumerate(brackets):
            if not right < lo <= hi < 1:
                return f"bracket {i} of P_{n} is out of order or outside (0,1)"
            if p(lo) * p(hi) > 0:
                return f"P_{n} keeps its sign across bracket {i}"
            right = hi
    return None


@_line("poly")
def check_interlacing(depth: int, rng) -> str | None:
    for n in range(min(depth, 12) + 1):
        if not dpoly.interlacing_check(n):
            return f"interlacing fails at n={n}"
    return None


# ------------------------------------------------------------------- oracle

@_line("oracle")
def check_gamma_functional_equation(depth: int, rng) -> str | None:
    for _ in range(20):
        s = complex(rng.uniform(0.5, 5.0), rng.uniform(-10.0, 10.0))
        lhs = oracles.gamma_ref(s + 1)
        rhs = s * oracles.gamma_ref(s)
        if abs(lhs - rhs) > 1e-12 * abs(lhs):
            return f"functional equation fails at s={s}"
    return None


@_line("oracle")
def check_gamma_reflection(depth: int, rng) -> str | None:
    # Gamma(s+1) evaluates directly while Gamma(s) reflects, so the
    # functional equation across Re(s) = 0.5 ties both branches together
    count = 0
    while count < 12:
        s = complex(rng.uniform(-0.45, 0.45), rng.uniform(-4.0, 4.0))
        if abs(s) < 0.1:
            continue
        count += 1
        lhs = oracles.gamma_ref(s + 1)
        if abs(lhs - s * oracles.gamma_ref(s)) > 1e-12 * abs(lhs):
            return f"reflection-side functional equation fails at s={s}"
    return None


def _bernoulli(n: int) -> Fraction:
    # B_n = sum_k (-1)^k k! S2(n,k) / (k+1), from the Stirling numbers
    return sum(Fraction((-1) ** k * factorial(k) * comb.stirling2(n, k), k + 1)
               for k in range(n + 1))


@_line("oracle")
def check_eta_zeta_relation(depth: int, rng) -> str | None:
    # zeta(2k) = |B_2k| (2 pi)^(2k) / (2 (2k)!), Euler's closed form, ties
    # zeta_ref = eta_ref / (1 - 2^(1-s)) to the exact Bernoulli numbers
    for k in range(1, 7):
        closed = float(abs(_bernoulli(2 * k)) / (2 * factorial(2 * k))) * (2 * pi) ** (2 * k)
        got = oracles.zeta_ref(2 * k)
        if abs(got - closed) > 1e-12 * closed:
            return f"zeta({2 * k}) misses Euler's closed form"
    return None


@_line("oracle")
def check_eta_acceleration_orders(depth: int, rng) -> str | None:
    for s in (0.5, 0.75, 2 + 1j):
        one = oracles.eta_ref(s, acceleration_order=40)
        two = oracles.eta_ref(s, acceleration_order=56)
        if abs(one - two) > 1e-12 * max(1.0, abs(one)):
            return f"acceleration orders disagree at s={s}"
    return None


@_line("oracle")
def check_gamma_integral_quadrature(depth: int, rng) -> str | None:
    for s in (0.5, 1.0, 2.25):
        quad = oracles.gamma_integral_ref(s)
        target = oracles.gamma_ref(s + 1)
        if abs(quad.value - target) > 1e-9 * abs(target):
            return f"integral of (-log(1-t))^s misses Gamma(s+1) at s={s}"
    return None


@_line("oracle")
def check_elementary_quadratures(depth: int, rng) -> str | None:
    third = oracles.quad_tanh_sinh(lambda t: t**2, 0.0, 1.0)
    if abs(third.value - Fraction(1, 3)) > 1e-11:
        return "int_0^1 t^2 dt missed 1/3"
    # int_0^{1/2} (1-2x)^3 dx = 1/8
    pow3 = oracles.quad_tanh_sinh(lambda x: (1 - 2 * x) ** 3, 0.0, 0.5)
    if abs(pow3.value - 0.125) > 1e-11:
        return "int_0^{1/2} (1-2x)^3 dx missed 1/8"
    return None


# ----------------------------------------------------------------- integral

@_line("integral")
def check_integral_identity(depth: int, rng) -> str | None:
    for n in range(min(depth, 12) + 1):
        for s in (0.75, 1.5):
            report = oracles.integral_identity_check(s, n)
            if report.rel_discrepancy > 1e-8:
                return (
                    f"identity off by {report.rel_discrepancy:.2e} "
                    f"at n={n}, s={s}"
                )
    return None


@_line("integral")
def check_eta_integral_quadrature(depth: int, rng) -> str | None:
    for s in (0.5, 1.0, 2.0):
        quad = oracles.eta_integral_ref(s)
        target = oracles.eta_ref(s) * oracles.gamma_ref(s)
        if abs(quad.value - target) > 1e-10 * max(1.0, abs(target)):
            return f"defining integral misses eta(s)Gamma(s) at s={s}"
    return None


def run_suite(suite: str, depth: int, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one suite (or "all"); results come back in registry order."""
    if suite == "all":
        selected = [(s, name, fn) for s in SUITES for name, fn in SUITES[s]]
    elif suite in SUITES:
        selected = [(suite, name, fn) for name, fn in SUITES[suite]]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for suite_name, name, fn in selected:
        rng = random.Random(f"{seed}:{suite_name}:{name}")
        try:
            witness = fn(depth, rng)
        except Exception as exc:  # a raised defect is a failing check
            witness = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(suite_name, name, witness is None, witness))
    return results
