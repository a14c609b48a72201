"""The shared factorial-series engine behind both expansions."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammazeta import factorial_series as fs
from gammazeta import gamma_expansion as ge
from gammazeta import zeta_expansion as ze


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


def _loop_recurrence_terms(side, s, n_terms, pref=None):
    # the recurrence branch of float_terms as a plain loop over b: the
    # reference the comprehension must match bit for bit
    d = side.stride
    terms = [1 / (s + 1) if pref is None else pref / (s + 1)]
    row = [1.0 + 0j]
    for a in range(1, n_terms):
        r = d * a
        prev, row = row, [0j] * (a + 1)
        for b in range(1, a + 1):
            upper = prev[b] if b < len(prev) else 0j
            row[b] = ((r + b - d) / (r + b) * upper
                      + (s - b + 1) / (r + b) * prev[b - 1])
        inner = sum(row[b] for b in range(a, 0, -1))
        den = s + r + 1
        terms.append(inner / den if pref is None else pref * inner / den)
    return terms


@pytest.mark.parametrize("side_name", ["gamma", "zeta"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_terms=st.integers(1, 150))
def test_float_recurrence_is_the_loop_bit_for_bit(side_name, data, n_terms):
    module = ge if side_name == "gamma" else ze
    low = -1.0 if side_name == "gamma" else 0.0
    re = data.draw(st.floats(low, 4.0, exclude_min=True, exclude_max=True))
    im = data.draw(st.floats(-20.0, 20.0).filter(lambda y: y != 0))
    s = complex(re, im)
    assume(side_name == "zeta" or abs(s + 1) >= ge.POLE_TOLERANCE)
    pref = None if side_name == "gamma" else 2 ** (s - 1) / s
    expected = _loop_recurrence_terms(module.SIDE, s, n_terms, pref)
    assert _bits(module.expansion_terms(s, n_terms, "recurrence")) == _bits(expected)
    assert (_bits(module.partial_sums(s, n_terms, "recurrence"))
            == _bits(fs.running_sums(expected)))


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


def test_low_start_precision_doubles_then_falls_back(monkeypatch):
    # at 16 bits no term certifies; doubling certifies the early terms,
    # whose bound is small, and the exact tier finishes the rest
    precisions, certified, exact_rows = [], [], []
    fixed_terms, exact_sums = fs._fixed_terms, fs._exact_sums

    def spy_fixed(side, p, q, n, path, prec):
        got = list(fixed_terms(side, p, q, n, path, prec))
        precisions.append(prec)
        certified.append(sum(t is not None for t in got))
        return iter(got)

    def spy_exact(d, p, q, n):
        exact_rows.append(n - 1)
        return exact_sums(d, p, q, n)

    monkeypatch.setattr(fs, "_start_precision", lambda *args: 16)
    monkeypatch.setattr(fs, "_fixed_terms", spy_fixed)
    monkeypatch.setattr(fs, "_exact_sums", spy_exact)
    for module, s, pref in ((ge, Fraction(3, 2), None),
                            (ze, Fraction(3, 4), 2 ** -0.25 / 0.75)):
        for path in fs.PATHS:
            precisions.clear(), certified.clear(), exact_rows.clear()
            terms = module.expansion_terms(s, 100, path)
            assert precisions == [16, 32, 64]
            assert certified[0] == 0 and certified[-1] > 0
            assert sum(certified) < 99 and exact_rows, "the exact tier never ran"
            monkeypatch.setattr(fs, "_exact_sums", exact_sums)
            assert _bits(terms) == _bits(_exact_reference(module.SIDE, s, 100, pref))
            monkeypatch.setattr(fs, "_exact_sums", spy_exact)


def test_only_s_zero_skips_the_fixed_tier(monkeypatch):
    # A_a(0) = 0, which no interval certifies; every other integer s
    # certifies all its terms in the first pass
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


def test_evaluation_never_grows_the_exact_triangle():
    # only coeff, coeff_table and the Bell values read the exact kernel
    # triangle; the float weights come from a recurrence of their own
    side = fs.kernel_side(2)
    for path in fs.PATHS:
        fs.exact_terms(side, Fraction(2), 60, path)
        fs.exact_terms(side, Fraction(0), 60, path)
        fs.float_terms(side, 1 + 1j, 60, path)
    fs.coefficients(side, Fraction(3), 30)
    fs.coefficients(side, 0.5 + 1j, 30)
    assert side.triangle._rows == []


@pytest.mark.parametrize("stride", [1, 2])
def test_complex_s_builds_no_exact_kernel_row(monkeypatch, stride):
    # the float weights, and so complex direct terms and coefficients,
    # come without a single big-integer kernel row
    def fail(*args):
        raise AssertionError("an exact kernel row was built")

    monkeypatch.setattr(fs, "_next_row", fail)
    side = fs.kernel_side(stride)
    assert len(fs.float_terms(side, 1 + 1j, 60, "direct")) == 60
    assert len(fs.coefficients(side, 0.5 + 1j, 30)) == 31


def test_interrupted_weight_build_keeps_its_rows_in_place(monkeypatch):
    # a KeyboardInterrupt in the middle of a build, as a library caller
    # may raise it, leaves the cached weight rows as an uninterrupted
    # build makes them
    side = fs.kernel_side(1)
    float_row = fs._float_row

    def interrupt(prev, d, shift):
        if len(prev) == 7:
            raise KeyboardInterrupt
        return float_row(prev, d, shift)

    monkeypatch.setattr(fs, "_float_row", interrupt)
    with pytest.raises(KeyboardInterrupt):
        side.weights.ensure(20)
    monkeypatch.undo()
    assert side.weights.rows(30) == fs.kernel_side(1).weights.rows(30)


def test_deep_direct_rows_stay_small():
    # no exact kernel triangle is kept, for integer s or for the float
    # weights: cached, it would take 867 and 198 MiB here. The child reads
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
    # T[r,b] b!/(r+b)! from the exact triangle; the cached float weights,
    # the same recurrence in floating point, stay within a*u relative of
    # them (u = 2**-53)
    side = fs.kernel_side(stride)
    row = [Fraction(1)]
    for a in range(1, 201):
        r = stride * a
        kernel = side.triangle.row(a)
        if a <= 30:
            prev = row + [Fraction(0)]
            row = [Fraction(0)] + [((r + b - stride) * prev[b] + b * prev[b - 1]) / (r + b)
                                   for b in range(1, a + 1)]
            assert row == [Fraction(kernel[b] * factorial(b), factorial(r + b))
                           for b in range(a + 1)]
        weights = side.weights.row(a)
        assert len(weights) == a + 1
        for b in range(1, a + 1):
            # |m/den - T b!/(r+b)!| <= a u T b!/(r+b)!, over integers
            m, den = weights[b].as_integer_ratio()
            exact = kernel[b] * factorial(b) * den
            assert abs(m * factorial(r + b) - exact) << 53 <= a * exact, (a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), stride=st.sampled_from((1, 2)), prec=st.integers(1, 80),
       n=st.integers(2, 40))
def test_fixed_rows_stay_within_their_bound(data, stride, prec, n):
    # s = -1 is the direct path's weight rows
    s = data.draw(st.one_of(_rationals(-1), st.just(Fraction(-1))))
    p, q = s.numerator, s.denominator
    bounds = fs._row_bounds(stride, p, q, n)
    exact = [1]  # M[a,b] = q**b (r+b)! g[r,b], the integer form of the rows
    for a, row in enumerate(fs._fixed_rows(stride, p, q, n, prec), 1):
        r = stride * a
        exact = fs._next_row(exact, [(p - j * q) * m for j, m in enumerate(exact)], a, stride)
        for b in range(1, a + 1):
            g = Fraction(exact[b], q**b * factorial(r + b))
            assert abs(row[b] - g * 2**prec) <= bounds[a]


@settings(max_examples=60, deadline=None)
@given(s=_rationals(-1), prec=st.integers(1, 80), n=st.integers(2, 60))
def test_fixed_binomials_stay_within_their_bound(s, prec, n):
    binom, bounds = fs._fixed_binomials(s.numerator, s.denominator, n, prec)
    exact = Fraction(1)  # (-1)**b (s)_b/b!
    for b in range(1, n):
        exact *= (b - 1 - s) / b
        assert abs(binom[b] - exact * 2**prec) <= bounds[b]


@settings(max_examples=60, deadline=None)
@given(s=st.integers(0, 60), prec=st.integers(1, 80), n=st.integers(2, 80))
def test_fixed_binomials_are_exact_at_integer_s(s, prec, n):
    # every division is exact: B[b] = (-1)**b C(s, b) 2**prec, 0 beyond b = s
    binom, bounds = fs._fixed_binomials(s, 1, n, prec)
    assert binom == [(-1) ** b * comb(s, b) << prec for b in range(n)]
    assert bounds == [0] * n


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
