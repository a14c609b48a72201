"""The verify ledger: for every line of ``verify all``, a named mutant of
the code that line checks, under which the line FAILs.

A mutant is one monkeypatched attribute, one edited row of a cached
triangle, or one edited entry of a cached sequence. A row or entry is
edited in a copy of the cache's list, so the entries built while the
mutant is on go away with it. ``run_suite("all", DEPTH)`` runs once
clean and once under each mutant, with the cached derivative
polynomials and brackets dropped before and after. A line's
failure set is the set of mutants under which it fails. Every line
fails under its own mutant. No two lines have the same failure set: a
line that fails exactly when another line fails compares nothing of its
own.

The converse does not hold: distinct failure sets do not prove distinct
facts. A line whose mutant patches a helper that no other line calls
gets a failure set of its own even when it restates another line. The
by-parts form of the integral identity was such a line. Its mutant
broke the division of Q_{n+2} by x, which only that line used, yet its
quadrature integrated the same function as ``integral_identity`` at
points that line already checks.
"""

import pytest

from gammazeta import (
    bell,
    combinatorics as comb,
    derivative_polynomials as dpoly,
    factorial_series as fs,
    gamma_expansion,
    mittag_leffler,
    oracles,
    verify,
    zeta_expansion,
)
from gammazeta.polynomials import Polynomial

# the depth of every run: it reads each triangle entry edited below
DEPTH = 6


def _edit(triangle, n: int, deltas: dict):
    """Add deltas[k] to entry (n, k) of a cached triangle."""

    def apply(mp):
        triangle.ensure(n)
        rows = list(triangle._rows)
        rows[n] = [v + deltas.get(k, 0) for k, v in enumerate(rows[n])]
        mp.setattr(triangle, "_rows", rows)

    return apply


def _shift(sequence, n: int, delta):
    """Add delta to entry n of a cached sequence."""

    def apply(mp):
        sequence.ensure(n)
        entries = list(sequence._rows)
        entries[n] += delta
        mp.setattr(sequence, "_rows", entries)

    return apply


def _wrap(owner, name: str, mutate):
    """Replace ``owner.name`` by ``mutate(original)``."""

    def apply(mp):
        mp.setattr(owner, name, mutate(getattr(owner, name)))

    return apply


def _exact_sums_doubled(stride: int):
    # every numerator of A_a(s) on one side doubled
    return _wrap(fs, "_exact_sums", lambda sums: lambda d, p, q, n: (
        (num * (1 + (d == stride)), den) for num, den in sums(d, p, q, n)))


def _late_terms_scaled(stride: int):
    # the rounded exact terms of one side from index 60 on, times 1000
    return _wrap(fs, "exact_terms", lambda terms: lambda side, *args: [
        t * (1000 if side.stride == stride and a >= 60 else 1)
        for a, t in enumerate(terms(side, *args))])


def _brackets_shifted(refine):
    # each bracket moved two of its widths to the right, off its root
    def shifted(*args):
        lo, hi = refine(*args)
        return lo + 2 * (hi - lo), hi + 2 * (hi - lo)

    return shifted


def _quadrature_high(quad):
    # every value of the rule 1e-8 high, relative
    def high(*args, **kwargs):
        res = quad(*args, **kwargs)
        return res._replace(value=res.value * (1 + 1e-8))

    return high


_G, _Z = gamma_expansion.SIDE, zeta_expansion.SIDE

# (line, mutant, how to apply it), in the order of verify.SUITES
LEDGER = [
    ("stirling1_row_sums", "s1(1,0) = 1",
     _edit(comb.STIRLING1, 1, {0: 1})),
    ("eulerian_row_sums_and_symmetry", "E(4,.) = 2,11,11,0: the same sum, not symmetric",
     _edit(comb.EULERIAN, 4, {0: 1, 3: -1})),
    ("stirling1_telescoped", "s1(6,1..4) += -6,11,-6,1: the same sums of u^k s1(6,k) at u = 1,2,3",
     _edit(comb.STIRLING1, 6, {1: -6, 2: 11, 3: -6, 4: 1})),
    ("stirling1_generating_function", "s1(1,.) = 1,0: the same row sum",
     _edit(comb.STIRLING1, 1, {0: 1, 1: -1})),
    ("rising_equals_shifted_falling", "rising_factorial(s, k) starts at s+1",
     _wrap(comb, "rising_factorial", lambda rising: lambda s, k: rising(s + 1, k))),
    ("partial_bell_boundaries", "partial_bell reads x_(m+1) for x_m",
     _wrap(bell, "partial_bell", lambda pb: lambda n, k, xs: pb(n, k, [*xs[1:], 0]))),
    ("partial_bell_vs_enumeration", "bell_by_partitions adds the partitions into k-1 blocks",
     _wrap(bell, "bell_by_partitions", lambda bp: lambda n, k, xs: bp(n, k, xs) + bp(n, k - 1, xs))),
    ("series_pow_integer_powers", "a product of series loses its top coefficient",
     _wrap(bell.TruncatedSeries, "__mul__", lambda mul: lambda u, v: bell.TruncatedSeries(
         mul(u, v).coeffs[:-1] + (0,)))),
    ("series_pow_roundtrip", "series_pow negates a fractional exponent",
     _wrap(bell, "series_pow", lambda pw: lambda base, r: pw(base, r if isinstance(r, int) else -r))),
    ("potential_poly_squared_series", "potential_poly takes the rising factorial",
     _wrap(bell, "falling_factorial", lambda _: comb.rising_factorial)),
    ("c_direct_equals_recurrence", "gamma_expansion.coeff_direct reads C(n, k+1)",
     _wrap(gamma_expansion, "binomial", lambda binom: lambda n, k: binom(n, k + 1))),
    ("c_diagonal_double_factorial", "c[4,4] += 1",
     _edit(gamma_expansion.TRIANGLE, 4, {4: 1})),
    ("c_first_column_factorial", "c[4,1] += 1",
     _edit(gamma_expansion.TRIANGLE, 4, {1: 1})),
    ("c_bell_identity", "c[5,3] += 1",
     _edit(gamma_expansion.TRIANGLE, 5, {3: 1})),
    ("gamma_path_equivalence", "K_10 of the Gamma side's series power += 0.5",
     _shift(_G.log_derivative, 10, 0.5)),
    ("gamma_integrand_power_identity", "exact A_a(s) of the Gamma side doubled",
     _exact_sums_doubled(1)),
    ("gamma_known_values", "exact Gamma-side terms from index 60 on x1000",
     _late_terms_scaled(1)),
    ("ml_table_equals_telescoped", "coeff_telescoped drops its boundary term 2^k",
     _wrap(mittag_leffler, "coeff_telescoped",
           lambda tel: lambda n, k: tel(n, k) - (2**k if n == k else 0))),
    ("ml_parity_and_boundaries", "a[2,0] = 2",
     _edit(mittag_leffler.ML_COEFFS, 2, {0: 2})),
    ("ml_diagonal_and_divisibility", "a[6,4] += 2: no longer divisible by 2^4",
     _edit(mittag_leffler.ML_COEFFS, 6, {4: 2})),
    ("ml_generating_function", "the Cauchy product takes C(n,i) + 1 for 0 < i < n",
     _wrap(mittag_leffler, "comb", lambda binom: lambda n, i: binom(n, i) + (0 < i < n))),
    ("ml_bateman_recurrence", "a[11,1] += 2, a row no other line reads at this depth",
     _edit(mittag_leffler.ML_COEFFS, 11, {1: 2})),
    ("b_direct_equals_recurrence", "zeta_expansion.coeff_direct reads C(n, k+1)",
     _wrap(zeta_expansion, "binomial", lambda binom: lambda n, k: binom(n, k + 1))),
    ("b_first_column", "b[6,1] += 1",
     _edit(zeta_expansion.TRIANGLE, 3, {1: 1})),
    ("b_bell_identity", "b[6,2] += 1",
     _edit(zeta_expansion.TRIANGLE, 3, {2: 1})),
    ("zeta_path_equivalence", "K_10 of the zeta side's series power += 0.5",
     _shift(_Z.log_derivative, 10, 0.5)),
    ("zeta_integrand_power_identity", "exact A_a(s) of the zeta side doubled",
     _exact_sums_doubled(2)),
    ("zeta_target_convergence", "exact zeta-side terms from index 60 on x1000",
     _late_terms_scaled(2)),
    ("q_closed_forms", "S2(4,2) += 1",
     _edit(comb.STIRLING2, 4, {2: 1})),
    ("riccati_chain", "riccati_derivative(n, a, ...) scales by a^(n-1)",
     _wrap(dpoly, "prod", lambda prod: lambda factors: prod(factors[1:]))),
    ("root_counts", "each root bracket two widths right of its root",
     _wrap(dpoly, "_refine", _brackets_shifted)),
    ("interlacing", "brackets in decreasing order",
     _wrap(dpoly, "reduced_brackets", lambda brackets: lambda n: brackets(n)[::-1])),
    ("gamma_functional_equation", "Lanczos sum without its last coefficient",
     _wrap(oracles, "_LANCZOS_COEFFS", lambda coeffs: coeffs[:-1])),
    ("gamma_reflection", "gamma_ref 1e-9 high for Re(s) < 0.5",
     _wrap(oracles, "gamma_ref",
           lambda gamma: lambda s: gamma(s) * (1 + 1e-9 * (complex(s).real < 0.5)))),
    ("eta_zeta_relation", "eta_ref 1e-9 high",
     _wrap(oracles, "eta_ref", lambda eta: lambda s, acceleration_order=None: eta(
         s, acceleration_order) * (1 + 1e-9))),
    ("eta_acceleration_orders", "an explicit Borwein order is cut to a quarter",
     _wrap(oracles, "eta_ref", lambda eta: lambda s, acceleration_order=None: eta(
         s, acceleration_order and acceleration_order // 4))),
    ("gamma_integral_quadrature", "gamma_integral_ref integrates (-log u)^(s+1)",
     _wrap(oracles, "gamma_integral_ref", lambda ref: lambda s: ref(complex(s) + 1))),
    ("elementary_quadratures", "quad_tanh_sinh 1e-8 high",
     _wrap(oracles, "quad_tanh_sinh", _quadrature_high)),
    ("integral_identity", "the identity takes the falling factorial for the rising one",
     _wrap(oracles, "rising_factorial", lambda _: comb.falling_factorial)),
    ("eta_integral_quadrature", "eta_integral_ref divides by (1+e^-t)^2",
     _wrap(oracles, "eta_integral_ref", lambda _: lambda s: oracles.quad_exp_sinh(
         oracles._reduced_integrand(complex(s) - 1, (1,), 2), 0.0, tol=oracles._REF_TOL))),
]


# every line of verify all, in run order
LINES = [name for checks in verify.SUITES.values() for name, _ in checks]


# held here, as a mutant may replace the module attribute
_POLYNOMIAL_CACHES = (dpoly.reduced_polynomial, dpoly.reduced_brackets)


def _clear_polynomial_caches() -> None:
    for cached in _POLYNOMIAL_CACHES:
        cached.cache_clear()


def _failing_lines(mutant=None) -> set[str]:
    with pytest.MonkeyPatch.context() as mp:
        if mutant:
            mutant(mp)
        _clear_polynomial_caches()
        try:
            results = verify.run_suite("all", DEPTH)
        finally:
            _clear_polynomial_caches()
    return {r.name for r in results if not r.passed}


@pytest.fixture(scope="module")
def failures() -> dict:
    """mutant -> the lines that fail under it; None is the clean run."""
    out = {None: _failing_lines()}
    for _line, mutant, apply in LEDGER:
        out[mutant] = _failing_lines(apply)
    return out


def test_each_line_has_one_mutant_and_the_clean_run_passes(failures):
    assert [line for line, _, _ in LEDGER] == LINES
    assert len({mutant for _, mutant, _ in LEDGER}) == len(LEDGER)
    assert failures[None] == set()


@pytest.mark.parametrize("line, mutant", [(line, mutant) for line, mutant, _ in LEDGER],
                         ids=[line for line, _, _ in LEDGER])
def test_own_mutant_fails_the_line(failures, line, mutant):
    assert line in failures[mutant]


def test_q_closed_forms_fails_when_q_drops_its_x_minus_1():
    # Q_n returned as x P_{n-2}: P_{n-2} itself is right, so only the
    # comparison of the returned Q_n with its Stirling form sees it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpoly, "derivative_polynomial",
                   lambda n: Polynomial((0, 1)) * dpoly.reduced_polynomial(n - 2))
        results = verify.run_suite("poly", DEPTH)
    assert [r.name for r in results if not r.passed] == ["q_closed_forms"]


def test_no_two_lines_fail_on_the_same_mutants(failures):
    by_set: dict[frozenset, list[str]] = {}
    for line in LINES:
        fail_set = frozenset(m for m, lines in failures.items() if line in lines)
        by_set.setdefault(fail_set, []).append(line)
    shared = [names for names in by_set.values() if len(names) > 1]
    assert not shared, f"lines that fail on the same mutants: {shared}"
