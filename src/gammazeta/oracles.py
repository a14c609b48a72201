"""Independent high-accuracy references the expansions are tested against.

Nothing here shares code with the series evaluators: Gamma comes from a
Lanczos approximation, eta from Borwein's accelerated alternating
series, and the integral identities from double-exponential quadrature.
The oracles are themselves self-tested (functional equation, reflection,
eta/zeta relation, elementary integrals) rather than trusted blindly.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import NamedTuple

from . import derivative_polynomials as dpoly
from .combinatorics import rising_factorial
from .report import (DEFAULT_QUAD_BUDGET, DEFAULT_QUAD_TOL, BudgetExceededError,
                     DomainError, PoleProximityError)

# Godfrey's Lanczos coefficient set: g = 607/128, 15 coefficients.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def gamma_ref(s) -> complex:
    """Gamma(s) by Lanczos approximation, reflection for Re(s) < 0.5.

    Relative accuracy is around 1e-13 for |s| <= 20; the verify suite
    asserts the functional equation rather than assuming this.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0 and s.real == int(s.real):
        raise PoleProximityError(f"Gamma pole at s = {int(s.real)}")
    if s.real < 0.5:
        # Gamma(s) Gamma(1-s) = pi / sin(pi s) = pi / ((-1)**n sin(pi (s-n))) for the
        # nearest integer n; s-n is exact, so the poles keep their relative accuracy
        n = round(s.real)
        value = math.pi / ((-1) ** n * cmath.sin(math.pi * (s - n)) * gamma_ref(1 - s))
        if not cmath.isfinite(value):  # s within ~5.6e-309 of a pole
            raise DomainError(f"Gamma oracle out of float range at s = {s!r}")
        return value
    z = s - 1
    acc = complex(_LANCZOS_COEFFS[0])
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    try:
        try:
            value = math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc
        except OverflowError:
            # t**(z+0.5) leaves the float range from Re s ~ 143 on, Gamma only
            # beyond ~171.6: take the power in halves around exp(-t)
            half = t ** ((z + 0.5) / 2)
            value = math.sqrt(2 * math.pi) * (half * cmath.exp(-t) * half) * acc
    # a half overflows too from Re s ~ 1000 on, and the phase of the power
    # (ZeroDivisionError) once Im s is beyond the float range
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not cmath.isfinite(value):  # |s| far beyond the range of Gamma's floats
        raise DomainError(f"Gamma oracle out of float range at s = {s!r}")
    return value


# At this order n d_n < 2**1023, so every partial sum of eta_ref stays finite.
_MAX_ORDER = 399


def _borwein_weights(n: int) -> tuple[list[int], int]:
    # d_k = sum_{i=0..k} t_i with t_i = n (n+i-1)! 4**i / ((n-i)! (2i)!), an
    # integer; the ratio t_{i+1}/t_i = 4(n+i)(n-i)/((2i+1)(2i+2)) divides exactly
    ds = []
    t = acc = 1
    for i in range(n + 1):
        ds.append(acc)
        t = t * 4 * (n + i) * (n - i) // ((2 * i + 1) * (2 * i + 2))
        acc += t
    return ds, ds[n]


@cache
def _eta_weights(n: int) -> tuple[list[float], float]:
    # ([d_n - d_k for k = 0..n-1], d_n), each integer rounded once to a float
    ds, dn = _borwein_weights(n)
    return [float(dn - d) for d in ds[:n]], float(dn)


def eta_ref(s, acceleration_order: int | None = None) -> complex:
    """Dirichlet eta by Borwein's alternating-series acceleration.

    Valid for Re(s) > 0; accuracy better than 1e-12 for Re(s) >= 0.3,
    |Im(s)| <= 30 at the default order, which grows with |Im(s)|. An
    order beyond 399, which the default reaches from |Im(s)| of about
    151.7 on to inf and nan, raises DomainError; one below 1, ValueError.

    ``_eta_weights`` builds the weights of each order on the first call
    at that order and caches them: at most 400 orders of floats, the
    same doubles an integer weight takes when it divides a complex.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("eta oracle requires Re(s) > 0")
    if acceleration_order is None and not abs(s.imag) < 1e6:  # inf, nan, 7+ digits
        raise DomainError(f"eta oracle needs an acceleration order beyond {_MAX_ORDER} "
                          f"at s = {s!r}; its sums would overflow")
    n = 36 + int(2.4 * abs(s.imag)) if acceleration_order is None else acceleration_order
    if n < 1:
        raise ValueError(f"eta oracle needs an acceleration order >= 1, got {n}")
    if n > _MAX_ORDER:
        raise DomainError(
            f"eta oracle needs acceleration order {n} at s = {s!r}, "
            f"beyond {_MAX_ORDER}; its sums would overflow"
        )
    weights, dn = _eta_weights(n)
    acc = 0j
    for k, w in enumerate(weights):
        try:
            term = w / complex(k + 1) ** s
        except OverflowError:  # (k+1)**Re(s) beyond the float range: the term is 0.0
            term = 0j
        acc += term if k % 2 == 0 else -term
    return acc / dn


def zeta_ref(s) -> complex:
    """Riemann zeta as eta(s) / (1 - 2**(1-s)); s = 1 is a pole."""
    s = complex(s)
    denom = 1 - 2 ** (1 - s)
    if abs(denom) < 1e-14:
        raise PoleProximityError("zeta is singular where 1 - 2**(1-s) vanishes")
    return eta_ref(s) / denom


class QuadratureResult(NamedTuple):
    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


_T_MAX = 6.2  # node weights underflow beyond this in either map
_MAX_LEVEL = 12  # halvings of the step h before a rule gives up
_HALF_PI = math.pi / 2
_REF_TOL = 1e-11  # tolerance of the reference integrals built on the rules


def _steps(level: int) -> list[float]:
    # the step parameters t that a level adds: k h for every k at level 0
    # (h = 1), for the odd k at h = 2**-level after that
    h, odd = 0.5**level, min(level, 1)
    return [k * h for k in range(odd, int(_T_MAX / h) + 1, 1 + odd)]


def _de_quadrature(f, nodes, tol: float, budget: int) -> QuadratureResult:
    """The double-exponential trapezoid rule (Takahasi & Mori, Publ. RIMS
    9, 1974) over the nodes of one variable map: ``nodes(level)`` yields
    ``(x, w)`` for the step parameters ``_steps(level)``; each level
    halves h."""
    evals = 0

    def level_sum(level: int) -> complex:
        nonlocal evals
        acc = 0j
        for x, w in nodes(level):
            v = complex(f(x))
            evals += 1
            if not cmath.isfinite(v):
                raise DomainError(f"integrand not finite at x = {x!r}")
            acc += w * v
        return acc

    h = 1.0
    total = level_sum(0) * h
    err = math.inf
    for level in range(1, _MAX_LEVEL + 1):
        h /= 2
        refined = total / 2 + level_sum(level) * h
        err = abs(refined - total)
        total = refined
        if err <= tol * max(1.0, abs(total)):
            return QuadratureResult(total, err, evals, True)
        if evals > budget:
            break
    return QuadratureResult(total, err, evals, False)


def quad_tanh_sinh(f, a: float, b: float, tol: float = DEFAULT_QUAD_TOL,
                   budget: int = DEFAULT_QUAD_BUDGET) -> QuadratureResult:
    """Integrate f over the finite interval (a, b), tanh-sinh map.

    Endpoints are never sampled, and abscissas approach them
    double-exponentially, so integrable endpoint singularities
    (log blow-ups, t**p with p > -1) converge cleanly. Near the left
    endpoint the abscissa is formed as a + delta with delta computed
    stably, so put the harder singularity at ``a`` when there is a
    choice. Complex integrand values are welcome.

    ``tol`` is measured against max(1, |integral|); ``error_estimate``
    in the result is the absolute level-to-level difference.
    """
    if not a < b:
        raise ValueError("requires a < b")
    half = 0.5 * (b - a)

    def nodes(level: int):
        for t in _steps(level):
            u = _HALF_PI * math.sinh(t)
            if u > 350.0:
                continue  # weight underflows
            e = math.exp(-2.0 * u)
            delta = half * 2.0 * e / (1.0 + e)
            w = half * _HALF_PI * math.cosh(t) * 4.0 * e / (1.0 + e) ** 2
            if w == 0.0 or delta == 0.0:
                continue
            for x in ((a + half,) if t == 0.0 else (a + delta, b - delta)):
                if a < x < b:
                    yield x, w

    return _de_quadrature(f, nodes, tol, budget)


@cache
def _exp_sinh_nodes(level: int):
    # the (e^u, w) pairs of the exp-sinh rule, interleaved in one array("d"):
    # they depend on neither f nor a. |u| < 390 at |t| <= _T_MAX, so no e^u
    # overflows or reaches 0, and no w is 0
    from array import array  # imported here: only quadrature needs it
    pairs = array("d")
    for t in _steps(level):
        for sgn in ((1.0,) if t == 0.0 else (1.0, -1.0)):
            ex = math.exp(_HALF_PI * math.sinh(sgn * t))
            pairs.extend((ex, _HALF_PI * math.cosh(t) * ex))
    return pairs


def quad_exp_sinh(f, a: float = 0.0, tol: float = DEFAULT_QUAD_TOL,
                  budget: int = DEFAULT_QUAD_BUDGET) -> QuadratureResult:
    """Integrate f over (a, inf); f must decay at least exponentially."""

    def nodes(level: int):
        pairs = iter(_exp_sinh_nodes(level))
        for ex, w in zip(pairs, pairs):
            yield a + ex, w

    return _de_quadrature(f, nodes, tol, budget)


def gamma_integral_ref(s) -> QuadratureResult:
    """Quadrature of the defining integral of Gamma(s+1):

        int_0^1 (-log(1-t))**s dt = int_0^1 (-log u)**s du,

    the substitution placing the log singularity at the stable endpoint.
    """
    s = complex(s)
    if s.real <= -1:
        raise DomainError("integral converges only for Re(s) > -1")

    def integrand(u: float) -> complex:
        return (-math.log(u)) ** s

    return quad_tanh_sinh(integrand, 0.0, 1.0, tol=_REF_TOL)


def eta_integral_ref(s) -> QuadratureResult:
    """Quadrature of the defining integral int_0^inf t**(s-1)/(1+e^t) dt,
    whose value is eta(s)Gamma(s).

    The integrand is evaluated as exp((s-1) log t - t)/(1 + e^{-t}) so
    neither factor overflows at either end of the half line.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("integral converges only for Re(s) > 0")
    return quad_exp_sinh(_reduced_integrand(s - 1, (1,), 1), 0.0, tol=_REF_TOL)


def _reduced_integrand(power: complex, coeffs, k: int):
    """v -> exp(power log v - v) P(x) / (1 + e^{-v})**k at x = 1/(1+e^v),
    for P with real ``coeffs`` (constant term first). v**power e^{-v} is
    folded into one exp so neither factor overflows. P(x) is summed in
    floats: at x >= 0 a complex sum has the same bits, and imag +0.0."""
    rc = [float(c) for c in reversed(coeffs)]

    def integrand(v: float) -> complex:
        e = math.exp(-v)
        x = e / (1.0 + e)
        acc = 0.0
        for c in rc:
            acc = acc * x + c
        try:
            scale = cmath.exp(power * cmath.log(v) - v)
        except ValueError as exc:  # an infinite phase: Im(power) beyond float range
            raise DomainError(f"integrand not finite at x = {v!r}") from exc
        return scale * complex(acc) / (1.0 + e) ** k

    return integrand


class IdentityCheckReport(NamedTuple):
    s: complex
    n: int
    lhs: complex
    rhs: complex
    abs_discrepancy: float
    rel_discrepancy: float
    quadrature: QuadratureResult


def integral_identity_check(s, n: int, tol: float = DEFAULT_QUAD_TOL,
                            budget: int = DEFAULT_QUAD_BUDGET) -> IdentityCheckReport:
    """Check the reduced-polynomial integral identity

        2**(1-s-n) (-1)**n int_0^{1/2} (log((1-x)/x))**(s+n) P_n(x) dx
            = s^(n+1 rising) / 2**(s+n-1) * eta(s) Gamma(s).

    The left side is integrated after the substitution x = 1/(1+e^v),
    which maps (0, 1/2) to (0, inf) and turns the logarithmic endpoint
    into plain exponential decay:

        int_0^inf v**(s+n) P_n(1/(1+e^v)) e^{-v}/(1+e^{-v})**2 dv.

    Raises BudgetExceededError when the quadrature cannot reach ``tol``
    within ``budget`` evaluations.
    """
    if s.real <= 0:  # on the exact value: complex(1e-400) is 0
        raise DomainError("identity requires Re(s) > 0")
    s = complex(s)
    if s.real <= 0:
        raise DomainError("Re(s) > 0 rounds to 0.0, below the float range")
    if n < 0:
        raise ValueError("n must be nonnegative")
    integrand = _reduced_integrand(s + n, dpoly.reduced_polynomial(n).coeffs, 2)
    quad = quad_exp_sinh(integrand, 0.0, tol=tol, budget=budget)
    if not quad.converged:
        raise BudgetExceededError(
            f"quadrature stalled at error {quad.error_estimate:.3e} "
            f"after {quad.evaluations} evaluations"
        )
    lhs = 2 ** (1 - s - n) * (-1) ** n * quad.value
    rhs = rising_factorial(s, n + 1) / 2 ** (s + n - 1) * (
        eta_ref(s) * gamma_ref(s)
    )
    abs_d = abs(lhs - rhs)
    rel_d = abs_d / abs(rhs) if rhs else math.inf
    return IdentityCheckReport(s, n, lhs, rhs, abs_d, rel_d, quad)
