"""The shared factorial-series engine behind both expansions."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammazeta import factorial_series as fs
from gammazeta import gamma_expansion as ge
from gammazeta import zeta_expansion as ze
from gammazeta.combinatorics import CachedTriangle


def _bits(terms):
    return [(t.real.hex(), t.imag.hex()) for t in terms]


def _rationals(lower):
    # p/q with |p| <= 60, 1 <= q <= 40, strictly above ``lower``
    return st.integers(1, 40).flatmap(
        lambda q: st.builds(Fraction, st.integers(lower * q + 1, 60), st.just(q))
    )


@settings(max_examples=60, deadline=None)
@given(s=_rationals(-1), n_terms=st.integers(1, 60))
def test_gamma_paths_agree_bit_for_bit(s, n_terms):
    direct = ge.expansion_terms(s, n_terms, "direct")
    assert _bits(direct) == _bits(ge.expansion_terms(s, n_terms, "recurrence"))


@settings(max_examples=60, deadline=None)
@given(s=_rationals(0), n_terms=st.integers(1, 60))
def test_zeta_paths_agree_bit_for_bit(s, n_terms):
    direct = ze.expansion_terms(s, n_terms, "direct")
    assert _bits(direct) == _bits(ze.expansion_terms(s, n_terms, "recurrence"))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), a=st.integers(0, 40), stride=st.sampled_from((1, 2)),
       q=st.integers(1, 50))
def test_horner_numerator_is_the_defining_sum(data, a, stride, q):
    r = stride * a
    row = data.draw(st.lists(st.integers(-(10**40), 10**40),
                             min_size=a + 1, max_size=a + 1))
    # sum_b row[b] q**(a-b) (r+a)!/(r+b)!, each quotient of factorials exact
    expected = sum(row[b] * q ** (a - b) * (factorial(r + a) // factorial(r + b))
                   for b in range(1, a + 1))
    assert fs._numerator(row, r, q) == expected


def _power_reference(d, s, n, mpmath):
    # terms 0..n-1 at 200 bits, A_a(s) from Miller's recurrence for L**s,
    # L = sum_k t**k/(dk+1): m b_m = sum_k (sk + k - m) L_k b_{m-k}, a
    # recurrence that shares no weight with the engine's K ((s+1)k - m
    # would lose a tiny s to rounding)
    with mpmath.workprec(200):
        s = mpmath.mpc(s)
        base = [mpmath.mpf(1) / (d * k + 1) for k in range(n)]
        kbase = [k * x for k, x in enumerate(base)]
        b = [mpmath.mpc(1)]
        for m in range(1, n):
            rb = b[::-1]  # b_{m-1}, ..., b_0
            shifted = [(k - m) * base[k] for k in range(1, m + 1)]
            b.append((s * mpmath.fdot(kbase[1:m + 1], rb) + mpmath.fdot(shifted, rb)) / m)
        return [b[a] / (s + d * a + 1) for a in range(n)]


@pytest.mark.parametrize("side_name", ["gamma", "zeta"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n_terms=st.integers(1, 150))
def test_float_recurrence_terms_are_accurate(side_name, data, n_terms):
    # every complex term, on either path, lies within 1e-12 relative of
    # the 200-bit reference (the zeta side's with the float prefactor).
    # |s| >= 1e-300 keeps the terms, about s l_a/(s+r+1) for tiny s, in
    # the normal range: a subnormal term carries too few bits for a
    # relative bound, even correctly rounded
    mpmath = pytest.importorskip("mpmath")
    module = ge if side_name == "gamma" else ze
    low = -1.0 if side_name == "gamma" else 0.0
    re = data.draw(st.floats(low, 4.0, exclude_min=True, exclude_max=True))
    im = data.draw(st.floats(-20.0, 20.0).filter(lambda y: y != 0))
    s = complex(re, im)
    assume(abs(s) >= 1e-300)
    assume(side_name == "zeta" or abs(s + 1) >= ge.POLE_TOLERANCE)
    reference = _power_reference(module.SIDE.stride, s, n_terms, mpmath)
    pref = 1 if module is ge else 2 ** (s - 1) / s
    for path in fs.PATHS:
        terms = module.expansion_terms(s, n_terms, path)
        for a, (got, want) in enumerate(zip(terms, reference)):
            assert abs(got - pref * want) <= 1e-12 * abs(pref * want), (s, a, path)


def _exact_reference(side, s, n_terms, pref=None):
    # every term from the exact tier alone, rounded as exact_terms rounds it
    p, q = s.numerator, s.denominator
    terms = [q / (p + q) if pref is None else pref * q / (p + q)]
    for a, (num, den) in enumerate(fs._exact_sums(side.stride, p, q, n_terms), 1):
        t = (num * q) / (den * (p + (side.stride * a + 1) * q))
        terms.append(t if pref is None else pref * t)
    return [complex(t) for t in terms]


# s for each side: small rationals (negative ones on the Gamma side),
# binary floats at their exact value, rationals with large terms, and
# integers (0 on the Gamma side)
_SIDE_S = {
    "gamma": st.one_of(_rationals(-1), st.floats(-0.999, 60.0).map(Fraction),
                       st.sampled_from([Fraction(0.3), Fraction(1e-3), Fraction(-0.3)]),
                       st.integers(0, 60).map(Fraction)),
    "zeta": st.one_of(_rationals(0), st.floats(1e-3, 60.0).map(Fraction),
                      st.sampled_from([Fraction(0.3), Fraction(0.75), Fraction(1e-3)]),
                      st.integers(1, 60).map(Fraction)),
}


@pytest.mark.parametrize("side_name", ["gamma", "zeta"])
@pytest.mark.parametrize("path", fs.PATHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_terms=st.integers(1, 120))
def test_certified_terms_are_the_exact_terms(side_name, path, data, n_terms):
    s = data.draw(_SIDE_S[side_name])
    module = ge if side_name == "gamma" else ze
    pref = None if side_name == "gamma" else 2 ** (float(s) - 1) / float(s)
    expected = _exact_reference(module.SIDE, s, n_terms, pref)
    assert _bits(module.expansion_terms(s, n_terms, path)) == _bits(expected)


def test_low_start_precision_certifies_nothing_then_exact(monkeypatch):
    # at 16 bits the one fixed-point pass certifies no term, and the
    # exact tier gives every term the same bits
    passes, exact_rows = [], []
    fixed_terms, exact_sums = fs._fixed_terms, fs._exact_sums

    def spy_fixed(*args):
        got = list(fixed_terms(*args))
        passes.append(got)
        return got

    def spy_exact(d, p, q, n):
        exact_rows.append(n - 1)
        return exact_sums(d, p, q, n)

    monkeypatch.setattr(fs, "_start_precision", lambda *args: 16)
    monkeypatch.setattr(fs, "_fixed_terms", spy_fixed)
    monkeypatch.setattr(fs, "_exact_sums", spy_exact)
    for module, s, pref in ((ge, Fraction(3, 2), None),
                            (ze, Fraction(3, 4), 2 ** -0.25 / 0.75)):
        for path in fs.PATHS:
            passes.clear(), exact_rows.clear()
            terms = module.expansion_terms(s, 100, path)
            assert passes == [[None] * 99] and exact_rows == [99]
            monkeypatch.setattr(fs, "_exact_sums", exact_sums)
            assert _bits(terms) == _bits(_exact_reference(module.SIDE, s, 100, pref))
            monkeypatch.setattr(fs, "_exact_sums", spy_exact)


# the s values of the exact_deep benchmark workload, each at the top of
# its stratum of the terms range (Gamma 300-450, zeta 200-320)
_EXACT_DEEP_GRID = [
    (ge, "0.3", 330), (ge, "0.5", 360), (ge, "0.75", 390), (ge, "1.25", 420), (ge, "1.5", 450),
    (ze, "0.5", 224), (ze, "0.75", 248), (ze, "1.25", 272), (ze, "1.5", 296), (ze, "1.75", 320),
]


@pytest.mark.parametrize("module, s, n_terms", _EXACT_DEEP_GRID)
def test_fixed_point_pass_certifies_every_deep_term(module, s, n_terms, monkeypatch):
    # the one pass at the start precision certifies every term of the deep
    # rows: a cut to P that leaves terms to the exact tier fails here
    def fail(*args):
        raise AssertionError(f"the exact tier ran at s = {s}, N = {n_terms}")

    monkeypatch.setattr(fs, "_exact_sums", fail)
    for path in fs.PATHS:
        module.expansion_terms(Fraction(s), n_terms, path)


def test_only_s_zero_skips_the_fixed_tier(monkeypatch):
    # A_a(0) = 0, which no interval certifies and no tier computes; every
    # other integer s certifies all its terms in the first pass
    fixed_terms, passes = fs._fixed_terms, []

    def spy_fixed(*args):
        passes.append(args)
        return fixed_terms(*args)

    def fail(*args):
        raise AssertionError("the exact tier ran for integer s >= 1")

    monkeypatch.setattr(fs, "_fixed_terms", spy_fixed)
    for path in fs.PATHS:
        assert ge.expansion_terms(Fraction(0), 40, path)[1:] == [0j] * 39
        assert passes == []
    monkeypatch.setattr(fs, "_exact_sums", fail)
    for module, s in ((ge, 1), (ge, 7), (ze, 1), (ze, 2), (ze, 30)):
        for path in fs.PATHS:
            passes.clear()
            module.expansion_terms(Fraction(s), 200, path)
            assert len(passes) == 1


def test_s_zero_needs_neither_tier(monkeypatch):
    # every A_a(s) has the factor s, so at s = 0 each inner term is 0.0,
    # the bits the exact tier would give, without a row of either tier
    def fail(*args):
        raise AssertionError("a tier ran at s = 0")

    monkeypatch.setattr(fs, "_fixed_terms", fail)
    monkeypatch.setattr(fs, "_exact_sums", fail)
    for path in fs.PATHS:
        assert _bits(ge.expansion_terms(0, 1000, path)) == _bits([1 + 0j] + [0j] * 999)
        assert _bits(fs.exact_terms(ze.SIDE, Fraction(0), 1000, path)[1:]) == _bits([0j] * 999)


@pytest.mark.parametrize("module", [ge, ze], ids=["gamma", "zeta"])
def test_a_real_s_beyond_the_float_range_raises_before_any_work(monkeypatch, module):
    # s = 10**999 raises at its conversion to a float, before the bounds of
    # the fixed-point pass, which grow by about s per row
    def fail(*args):
        raise AssertionError("the bounds were computed")

    monkeypatch.setattr(fs, "_row_bounds", fail)
    monkeypatch.setattr(fs, "_term_bounds", fail)
    for path in fs.PATHS:
        with pytest.raises(OverflowError):
            module.expansion_terms(Fraction(10**999), 1000, path)


@pytest.mark.parametrize("coeffs, stride, s, order", [
    (ge.integrand_coeffs, 1, 1 + 1j, 400), (ze.log_ratio_coeffs, 2, 2 + 5j, 300)])
def test_complex_coefficients_are_the_series_power(coeffs, stride, s, order):
    # each A_a(s) within 1e-12 relative of bell.series_pow, Miller's
    # recurrence on the base 1 + sum_m t**m/(stride m + 1), at depths
    # where a sum over the triangle's weights cancels
    from gammazeta import bell

    base = bell.TruncatedSeries([Fraction(1, stride * m + 1) for m in range(order + 1)])
    want = bell.series_pow(base, s).coeffs
    got = coeffs(s, order).coeffs
    assert len(got) == order + 1
    for a, (x, y) in enumerate(zip(got, want)):
        assert abs(x - y) <= 1e-12 * abs(y), a


def test_evaluation_never_grows_the_exact_triangle(monkeypatch):
    # only coeff, coeff_table and the Bell values read a triangle; the
    # evaluation's weights and summands come from recurrences of their own
    def fail(triangle, max_row):
        raise AssertionError("a triangle row was read or built")

    monkeypatch.setattr(CachedTriangle, "ensure", fail)
    for module, s in ((ge, Fraction(0)), (ge, Fraction(2)), (ze, Fraction(2)),
                      (ze, Fraction(1, 3))):
        for path in fs.PATHS:
            module.expansion_terms(s, 60, path)
        module.expansion_terms(s + 1j, 60)
    for coeffs in (ge.integrand_coeffs, ze.log_ratio_coeffs):
        coeffs(Fraction(3), 30)
        coeffs(0.5 + 1j, 30)


@pytest.mark.parametrize("stride", [1, 2])
def test_complex_s_builds_no_exact_kernel_row(monkeypatch, stride):
    # K, and so complex terms and coefficients, come without a single
    # big-integer row of either tier
    def fail(*args):
        raise AssertionError("an exact row was built")

    monkeypatch.setattr(fs, "_exact_sums", fail)
    monkeypatch.setattr(fs, "_fixed_rows", fail)
    side = fs.kernel_side(stride)
    assert len(fs.float_terms(side, 1 + 1j, 60)) == 60
    assert len(fs.coefficients(side, 0.5 + 1j, 30)) == 31


def test_interrupted_log_weight_build_keeps_a_valid_prefix(monkeypatch):
    # a KeyboardInterrupt in the middle of a build of K, as a library
    # caller may raise it, keeps the entries before the interrupted one,
    # and a later build carries on from them
    side = fs.kernel_side(2)
    log_weight = fs._log_weight

    def interrupt(ks, n, d):
        if n == 7:
            raise KeyboardInterrupt
        return log_weight(ks, n, d)

    monkeypatch.setattr(fs, "_log_weight", interrupt)
    with pytest.raises(KeyboardInterrupt):
        side.log_derivative.ensure(20)
    monkeypatch.undo()
    assert len(side.log_derivative._rows) == 7
    assert side.log_derivative.prefix(31) == fs.kernel_side(2).log_derivative.prefix(31)


def _exact_log_weights(d, n):
    # K_0..K_{n-1} in Fractions: K_n = n L_n - sum_{j=1..n-1} L_j K_{n-j}
    ks = [Fraction(0)]
    for m in range(1, n):
        ks.append(Fraction(m, d * m + 1) - sum(ks[m - j] / (d * j + 1) for j in range(1, m)))
    return ks


@pytest.mark.parametrize("stride", [1, 2])
def test_log_weights_are_within_16_ulps(stride):
    ks = fs.kernel_side(stride).log_derivative.prefix(201)
    for k, (got, want) in enumerate(zip(ks, _exact_log_weights(stride, 201))):
        assert abs(Fraction(got) - want) <= 16 * Fraction(math.ulp(got)), k


@pytest.mark.parametrize("stride", [1, 2])
def test_log_weights_lie_in_0_to_1_over_d_up_to_the_cap(stride):
    # 0 < K_k = k l_k <= 1/d: the premise 0 <= l_k <= 1/(dk) on the
    # coefficients l_k of log L, for every k a command can reach
    from gammazeta.cli import MAX_TERMS

    ks = fs.kernel_side(stride).log_derivative.prefix(MAX_TERMS + 1)
    assert all(0 < k <= 1 / stride for k in ks[1:])


def test_log_weights_are_built_lazily_to_the_depth_asked():
    # none at import; a complex eval at N terms builds K_0..K_{N-1} on
    # either path, and only the side asked for
    code = ("import contextlib, io\n"
            "from gammazeta import cli, gamma_expansion as ge, zeta_expansion as ze\n"
            "sides = (ge.SIDE, ze.SIDE)\n"
            "print(*[len(side.log_derivative._rows) for side in sides])\n"
            "for path, n in (('direct', '20'), ('recurrence', '30')):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(['eval', 'gamma', '--s', '1,1', '--terms', n, '--path', path])\n"
            "    print(*[len(side.log_derivative._rows) for side in sides])\n")
    src = str(Path(fs.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["0 0", "20 0", "30 0"]


@pytest.mark.parametrize("module, s, n_terms", [(ge, 1 + 1j, 50), (ze, 2 + 1j, 40)])
def test_complex_paths_share_no_weight(monkeypatch, module, s, n_terms):
    # at complex s both paths run the series power on the cached K, and
    # verify holds them against bell.series_pow, which reads no K. A wrong
    # K, as the ledger's path-equivalence mutants make, moves both paths
    # and leaves that partner alone, so the verify line compares two
    # independent routes and fails
    from gammazeta import bell, verify

    check = {ge: verify.check_gamma_path_equivalence,
             ze: verify.check_zeta_path_equivalence}[module]
    base = verify._power_base(module.SIDE.stride, n_terms - 1)
    before = {path: _bits(module.expansion_terms(s, n_terms, path)) for path in fs.PATHS}
    partner = bell.series_pow(base, s)
    assert check(0, None) is None
    ks = module.SIDE.log_derivative
    ks.ensure(10)
    entries = list(ks._rows)
    entries[10] += 0.5
    monkeypatch.setattr(ks, "_rows", entries)
    for path in fs.PATHS:
        assert _bits(module.expansion_terms(s, n_terms, path)) != before[path]
    assert bell.series_pow(base, s) == partner
    assert check(0, None).startswith("direct A_10(s) off the series power")


def test_deep_direct_rows_stay_small():
    # no exact kernel triangle is kept, for integer s or for complex s:
    # cached, it would take 867 and 198 MiB here. The child reads
    # its own peak, VmHWM: on Linux its ru_maxrss starts from the RSS of
    # the process that forked it, here the whole test session
    code = ("from gammazeta import zeta_expansion as ze\n"
            "for s, n in ((2, 1000), (1 + 1j, 600)):\n"
            "    ze.expansion_terms(s, n, 'direct')\n"
            "    print(*[line.split()[1] for line in open('/proc/self/status')\n"
            "            if line.startswith('VmHWM:')])\n")  # KiB
    src = str(Path(fs.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peaks = [int(kib) / 1024 for kib in proc.stdout.split()]
    assert len(peaks) == 2 and max(peaks) <= 64, peaks


@pytest.mark.parametrize("stride", [1, 2])
def test_weight_recurrence_gives_the_kernel_weights(stride):
    # w[r,b] = ((r+b-d) w[r-d,b] + b w[r-d,b-1])/(r+b) reproduces
    # T[r,b] b!/(r+b)! from the exact triangle: the summand recurrence at
    # s = -1, which the fixed-point direct rows run
    triangle = {1: ge.TRIANGLE, 2: ze.TRIANGLE}[stride]
    row = [Fraction(1)]
    for a in range(1, 31):
        r = stride * a
        kernel = triangle.row(a)
        prev = row + [Fraction(0)]
        row = [Fraction(0)] + [((r + b - stride) * prev[b] + b * prev[b - 1]) / (r + b)
                               for b in range(1, a + 1)]
        assert row == [Fraction(kernel[b] * factorial(b), factorial(r + b))
                       for b in range(a + 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), stride=st.sampled_from((1, 2)), prec=st.integers(1, 80),
       n=st.integers(2, 40))
def test_fixed_rows_stay_within_their_bound(data, stride, prec, n):
    # s = -1 is the direct path's weight rows
    s = data.draw(st.one_of(_rationals(-1), st.just(Fraction(-1))))
    p, q = s.numerator, s.denominator
    bounds = fs._row_bounds(stride, p, q, n)
    g = [Fraction(1)]  # g[r,b] by the summand recurrence, in Fractions
    for a, row in enumerate(fs._fixed_rows(stride, p, q, n, prec), 1):
        r, prev = stride * a, g + [0]
        g = [Fraction(0)] + [((r + b - stride) * prev[b] + (s - b + 1) * prev[b - 1]) / (r + b)
                             for b in range(1, a + 1)]
        for b in range(1, a + 1):
            assert abs(row[b] - g[b] * 2**prec) <= bounds[a]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), stride=st.sampled_from((1, 2)), prec=st.integers(1, 80),
       n=st.integers(2, 40))
def test_horner_sums_stay_within_their_bound(data, stride, prec, n):
    # the direct path's value of each weight row lies within
    # (E[a] + 1) sum_b |beta_b| of A_a(s) 2**prec, and so within its bound
    s = data.draw(st.one_of(_rationals(-1), st.integers(0, 60).map(Fraction)))
    p, q = s.numerator, s.denominator
    bounds = fs._row_bounds(stride, -1, 1, n)
    errs = fs._term_bounds(bounds, p, q, "direct")
    triangle = {1: ge.TRIANGLE, 2: ze.TRIANGLE}[stride]  # T[r,b] in row a
    width = p + 1 if q == 1 else math.inf
    for a, row in enumerate(fs._fixed_rows(stride, -1, 1, n, prec, width), 1):
        r, exact = stride * a, triangle.row(a)
        beta = [Fraction((-1) ** b) * math.prod(s - j for j in range(b)) / factorial(b)
                for b in range(a + 1)]  # (-1)**b (s)_b/b!
        value = sum(Fraction(exact[b] * factorial(b), factorial(r + b)) * (-1) ** b * beta[b]
                    for b in range(1, a + 1)) * 2**prec  # A_a(s) 2**prec
        error = abs(Fraction(fs._horner(row, p, q), q) - value)
        assert error <= (bounds[a] + 1) * sum(map(abs, beta[1:])) <= errs[a]


@settings(max_examples=24, deadline=None)
@given(side_name=st.sampled_from(("gamma", "zeta")), s=st.integers(1, 8),
       n_terms=st.integers(2, 400))
def test_direct_rows_stop_at_column_s_for_integer_s(side_name, s, n_terms):
    # the binomials and the summands vanish beyond b = s, so the fixed-point
    # rows of either path hold at most s+1 entries, and the terms keep the
    # bits of the exact tier
    module = ge if side_name == "gamma" else ze
    fixed_rows, widths = fs._fixed_rows, []

    def spy(d, p, q, n, prec, width=math.inf):
        for row in fixed_rows(d, p, q, n, prec, width):
            widths.append(len(row))
            yield row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fs, "_fixed_terms", lambda side, p, q, n, *_: [None] * (n - 1))
        exact = _bits(module.expansion_terms(Fraction(s), n_terms, "direct"))
    for path in ("direct", "recurrence"):
        widths.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fs, "_fixed_rows", spy)
            terms = module.expansion_terms(Fraction(s), n_terms, path)
        assert widths and max(widths) <= s + 1, path
        assert _bits(terms) == exact, path


def test_interval_rounding_compares_bit_patterns():
    tiny = 2**1100  # 1/tiny is far below the smallest subnormal
    assert fs._round_interval(1, 2, tiny).hex() == (0.0).hex()
    assert fs._round_interval(-2, -1, tiny).hex() == (-0.0).hex()
    assert fs._round_interval(-1, 1, tiny) is None  # -0.0 == 0.0, but not the same bits
    assert fs._round_interval(1, 3, 10) is None
    # part of the interval beyond the float range: the exact tier decides
    assert fs._round_interval(10**308, 10**400, 1) is None
    assert fs._round_interval(-(10**400), 10**400, 1) is None
    # all of it beyond the range: the term is, too
    with pytest.raises(OverflowError):
        fs._round_interval(10**400, 10**401, 1)
    with pytest.raises(OverflowError):
        fs._round_interval(-(10**401), -(10**400), 1)
