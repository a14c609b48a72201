"""Reference oracles: Lanczos Gamma, Borwein eta, quadrature, identities."""

import cmath
import math
import random
from fractions import Fraction
from math import factorial

import pytest

from gammazeta import (
    BudgetExceededError,
    DomainError,
    PoleProximityError,
    eta_integral_ref,
    eta_ref,
    gamma_integral_ref,
    gamma_ref,
    integral_identity_check,
    quad_exp_sinh,
    quad_tanh_sinh,
    zeta_ref,
)
from gammazeta import oracles


class TestGammaRef:
    def test_factorial_values(self):
        assert abs(gamma_ref(1) - 1) < 1e-14
        assert abs(gamma_ref(5) - 24) < 24 * 1e-14

    def test_half_integer_values(self):
        sqrt_pi = math.sqrt(math.pi)
        assert gamma_ref(0.5) == pytest.approx(sqrt_pi, rel=1e-14)
        assert gamma_ref(2.5) == pytest.approx(1.5 * 0.5 * sqrt_pi, rel=1e-13)

    def test_functional_equation_randomized(self):
        rng = random.Random(20090711)
        for _ in range(20):
            s = complex(rng.uniform(0.5, 5.0), rng.uniform(-10.0, 10.0))
            lhs = gamma_ref(s + 1)
            assert abs(lhs - s * gamma_ref(s)) <= 1e-12 * abs(lhs)

    def test_reflection_consistent_across_boundary(self):
        # Gamma(s+1) evaluates directly, Gamma(s) through reflection, so
        # the functional equation here genuinely ties the two branches
        rng = random.Random(42)
        count = 0
        while count < 12:
            s = complex(rng.uniform(-0.45, 0.45), rng.uniform(-3.0, 3.0))
            if abs(s) < 0.1:
                continue
            count += 1
            lhs = gamma_ref(s + 1)
            assert abs(lhs - s * gamma_ref(s)) <= 1e-12 * abs(lhs)

    def test_pole_rejection(self):
        for s in (0, -1, -7):
            with pytest.raises(PoleProximityError):
                gamma_ref(s)

    def test_beyond_the_float_range_next_to_a_pole(self):
        # |Gamma(s)| ~ 1/|s-n| passes the largest double below ~5.6e-309
        for s in (1e-320, 4.9e-309, complex(1e-320, 1e-320), complex(-2, 1e-320)):
            with pytest.raises(DomainError, match="out of float range"):
                gamma_ref(s)
        assert math.isfinite(gamma_ref(1e-308).real)

    @pytest.mark.parametrize("s", [142, 143, 151, 171, 171.6, -150.5])
    def test_values_near_the_top_of_the_float_range(self, s):
        # from Re s ~ 143 on, t**(z+0.5) overflows before Gamma(s) does
        assert gamma_ref(s).real == pytest.approx(math.gamma(s), rel=2e-15)

    @pytest.mark.parametrize("s", [1000 + 1000j, 1e5 + 1e5j, 1e10 + 1e10j])
    def test_a_lanczos_value_beyond_the_float_range_is_a_domain_error(self, s):
        # the power and the exponential of the Lanczos form meet as inf and 0
        with pytest.raises(DomainError, match="out of float range"):
            gamma_ref(s)


class TestEtaZetaRef:
    def test_known_values(self):
        assert eta_ref(1) == pytest.approx(math.log(2), rel=1e-14)
        assert zeta_ref(2) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert zeta_ref(0.5) == pytest.approx(-1.4603545088095868, rel=1e-13)

    def test_acceleration_orders_agree(self):
        for s in (0.5, 0.75, 3 + 2j):
            one = eta_ref(s, acceleration_order=40)
            two = eta_ref(s, acceleration_order=60)
            assert abs(one - two) <= 1e-12 * max(1.0, abs(one))

    def test_domain_and_pole_errors(self):
        with pytest.raises(DomainError):
            eta_ref(-0.5)
        with pytest.raises(PoleProximityError):
            zeta_ref(1.0)


class TestQuadrature:
    def test_polynomial_integral(self):
        res = quad_tanh_sinh(lambda t: t**2, 0.0, 1.0)
        assert res.converged
        assert res.value.real == pytest.approx(1 / 3, abs=1e-12)

    def test_power_of_one_minus_two_x(self):
        # int_0^{1/2} (1-2x)^gamma dx = 1/(2(gamma+1)) at gamma = 3
        res = quad_tanh_sinh(lambda x: (1 - 2 * x) ** 3, 0.0, 0.5)
        assert res.value.real == pytest.approx(0.125, abs=1e-12)

    def test_half_line_exponential(self):
        res = quad_exp_sinh(lambda t: math.exp(-t), 0.0)
        assert res.value.real == pytest.approx(1.0, abs=1e-12)

    def test_log_endpoint_singularity(self):
        # int_0^1 log(u) du = -1
        res = quad_tanh_sinh(lambda u: math.log(u), 0.0, 1.0)
        assert res.value.real == pytest.approx(-1.0, abs=1e-12)

    def test_budget_flag(self):
        res = quad_tanh_sinh(lambda u: math.log(u), 0.0, 1.0, tol=1e-30, budget=50)
        assert not res.converged

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            quad_tanh_sinh(lambda u: float("nan"), 0.0, 1.0)

    def test_exp_sinh_nodes_are_the_map_at_each_level(self):
        # the cached (e^u, w) pairs are, bit for bit, the nodes of the map
        # at the step parameters of their level, each level built once
        for level in range(oracles._MAX_LEVEL + 1):
            h = 0.5**level
            first, step = (0, 1) if level == 0 else (1, 2)
            ts = [k * h for k in range(first, int(oracles._T_MAX / h) + 1, step)]
            expected = []
            for t in ts:
                for sgn in ((1.0,) if t == 0.0 else (1.0, -1.0)):
                    ex = math.exp(math.pi / 2 * math.sinh(sgn * t))
                    w = math.pi / 2 * math.cosh(t) * ex
                    assert 0.0 < ex < math.inf and w > 0.0
                    expected += [ex.hex(), w.hex()]
            pairs = oracles._exp_sinh_nodes(level)
            assert [x.hex() for x in pairs] == expected
            assert oracles._exp_sinh_nodes(level) is pairs

    def test_reduced_integrand_keeps_the_bits_of_a_complex_horner_sum(self):
        # P(x) summed in floats equals, bit for bit, the complex sum it
        # replaced, out to x = 0 where e^{-v} underflows
        from gammazeta.derivative_polynomials import reduced_polynomial

        rng = random.Random(5)
        vs = [rng.uniform(0.0, 80.0) for _ in range(300)] + [1e-300, 1e-8, 745.0, 800.0]
        for n in (0, 1, 5, 12):
            coeffs = reduced_polynomial(n).coeffs
            for power, k in ((0.75 + n, 2), (complex(1.5, -2.0) + n, 1)):
                integrand = oracles._reduced_integrand(power, coeffs, k)
                for v in vs:
                    e = math.exp(-v)
                    x = e / (1.0 + e)
                    acc = 0j
                    for c in reversed([complex(c) for c in coeffs]):
                        acc = acc * x + c
                    scale = cmath.exp(power * cmath.log(v) - v)
                    want = scale * acc / (1.0 + e) ** k
                    got = integrand(v)
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_exp_sinh_shifts_its_nodes_by_the_endpoint(self):
        # the cache holds the nodes for a = 0; a shifted integrand gives
        # the same sum at a = 1, node for node
        at_zero = quad_exp_sinh(lambda t: math.exp(-t - 1.0), 0.0)
        at_one = quad_exp_sinh(lambda t: math.exp(-t), 1.0)
        assert at_one.evaluations == at_zero.evaluations
        assert at_one.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert at_zero.value == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestDefiningIntegrals:
    def test_gamma_integral_three_arguments(self):
        for s in (0.5, 1.0, 2.25):
            res = gamma_integral_ref(s)
            target = gamma_ref(s + 1)
            assert abs(res.value - target) <= 1e-9 * abs(target)

    def test_eta_integral_log_two(self):
        res = eta_integral_ref(1.0)
        assert res.value.real == pytest.approx(math.log(2), abs=1e-11)

    def test_eta_integral_half(self):
        res = eta_integral_ref(0.5)
        target = eta_ref(0.5) * gamma_ref(0.5)
        assert abs(res.value - target) <= 1e-10 * abs(target)


class TestIntegralIdentity:
    def test_log_two_case(self):
        # n=0, s=1 reduces to int_0^{1/2} log((1-x)/x) dx = log 2
        report = integral_identity_check(1.0, 0)
        assert report.rhs == pytest.approx(math.log(2), rel=1e-13)
        assert report.rel_discrepancy < 1e-10

    def test_pi_squared_case(self):
        report = integral_identity_check(2.0, 1)
        assert report.rel_discrepancy < 1e-9

    def test_representative_grid(self):
        for n in (0, 2, 4):
            for s in (0.75, 1.5):
                report = integral_identity_check(s, n)
                assert report.rel_discrepancy < 1e-8

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            integral_identity_check(0.75, 4, tol=1e-15, budget=64)

    def test_domain_rejection(self):
        with pytest.raises(DomainError):
            integral_identity_check(-1.0, 0)


class TestBorweinWeights:
    def test_weights_are_integers(self):
        from gammazeta.oracles import _borwein_weights

        ds, dn = _borwein_weights(12)
        assert all(isinstance(d, int) for d in ds)
        assert dn == ds[-1] > 0

    @pytest.mark.parametrize("n", [1, 2, 12, 60, 200])
    def test_weights_match_the_factorial_closed_form(self, n):
        from gammazeta.oracles import _borwein_weights

        # d_k = n sum_{i=0..k} (n+i-1)! 4**i / ((n-i)! (2i)!)
        expected, acc = [], Fraction(0)
        for i in range(n + 1):
            acc += Fraction(factorial(n + i - 1) * 4**i,
                            factorial(n - i) * factorial(2 * i))
            expected.append(n * acc)
        assert _borwein_weights(n) == (expected, expected[-1])

    def test_highest_order_stays_finite(self):
        value = eta_ref(0.01 + 150j, acceleration_order=399)
        assert math.isfinite(value.real) and math.isfinite(value.imag)

    def test_order_beyond_399_is_a_domain_error(self):
        with pytest.raises(DomainError):
            eta_ref(0.5, acceleration_order=400)
        with pytest.raises(DomainError):
            eta_ref(0.5 + 170j)  # default order 36 + int(2.4 * 170) = 444
        with pytest.raises(DomainError) as info:
            eta_ref(0.5 + 200j)
        assert str(info.value) == ("eta oracle needs acceleration order 516 at s = "
                                   "(0.5+200j), beyond 399; its sums would overflow")

    @pytest.mark.parametrize("s", [0.5 + 1e308j, complex(0.5, math.inf),
                                   complex(0.5, math.nan), 0.5 + 1e300j, 0.5 + 1e6j])
    def test_huge_or_nonfinite_imaginary_part_is_a_domain_error(self, s):
        # the default order 36 + int(2.4 |Im s|) is not computed: int() of
        # inf or nan raises, and at 1e300 it has 301 digits
        with pytest.raises(DomainError, match="acceleration order beyond 399") as info:
            eta_ref(s)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("order", [0, -5])
    def test_order_below_1_is_rejected(self, order):
        with pytest.raises(ValueError, match="acceleration order >= 1"):
            eta_ref(0.5, acceleration_order=order)


class TestAgainstMpmath:
    """mpmath at 30 digits as a third oracle, independent of both ours."""

    def test_gamma_ref_relative_accuracy(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(4101)
        points = []
        for _ in range(300):  # uniform on the disk |s| <= 20
            r, phi = 20 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
            points.append(complex(r * math.cos(phi), r * math.sin(phi)))
        points += [complex(rng.uniform(-20, 20)) for _ in range(300)]
        # within 1e-12..1e-1 of a pole, where sin(pi s) cancels
        points += [
            complex(rng.randint(-19, 0) + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -1))
            for _ in range(100)
        ]
        with mpmath.workdps(30):
            for s in points:
                want = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
                assert abs(gamma_ref(s) - want) <= 1e-13 * abs(want), s

    def test_eta_ref_accuracy(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(4102)
        with mpmath.workdps(30):
            for _ in range(200):
                s = complex(rng.uniform(0.3, 8.0), rng.uniform(-30.0, 30.0))
                want = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
                assert abs(eta_ref(s) - want) <= 1e-12 * max(1.0, abs(want)), s

    def test_zeta_ref_accuracy(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(777)
        with mpmath.workdps(30):
            for _ in range(20):
                s = complex(rng.uniform(0.3, 4.0), rng.uniform(-8.0, 8.0))
                if abs(s - 1) < 0.25:
                    continue
                want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
                assert abs(zeta_ref(s) - want) <= 1e-12 * max(1.0, abs(want)), s
