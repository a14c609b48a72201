"""The shared factorial-series engine behind both expansions."""

from fractions import Fraction
from math import factorial

from hypothesis import given, settings
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
