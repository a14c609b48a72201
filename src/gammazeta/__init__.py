"""gammazeta: exact coefficient triangles and factorial series expansions
of Gamma(s+1) and eta(s)Gamma(s), verified against independent oracles.

The package keeps every combinatorial quantity in exact integer or
rational arithmetic; floating point enters only where a complex
argument s is intrinsic, and every floating result has an independent
reference (Lanczos Gamma, Borwein eta, double-exponential quadrature)
to be checked against. The ``gammazeta`` command line exposes table
emission, expansion evaluation, convergence studies, and the full
verification suites.
"""

from .bell import (
    SequenceTooShortError,
    TruncatedSeries,
    bell_by_partitions,
    partial_bell,
    potential_poly,
    series_pow,
)
from .combinatorics import (
    binomial,
    double_factorial_odd,
    eulerian,
    factorial,
    falling_factorial,
    rising_factorial,
    stirling1,
    stirling2,
)
from .derivative_polynomials import (
    derivative_polynomial,
    interlacing_check,
    reduced_polynomial,
    riccati_derivative,
    roots_in_unit_interval,
)
from .oracles import (
    IdentityCheckReport,
    QuadratureResult,
    eta_integral_ref,
    eta_ref,
    gamma_integral_ref,
    gamma_ref,
    integral_identity_check,
    quad_exp_sinh,
    quad_tanh_sinh,
    zeta_ref,
)
from .polynomials import GaussianRational, Polynomial
from .report import (
    BudgetExceededError,
    DefectError,
    DomainError,
    PoleProximityError,
    SeriesReport,
)
from . import gamma_expansion, mittag_leffler, verify, zeta_expansion

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DefectError",
    "DomainError",
    "GaussianRational",
    "IdentityCheckReport",
    "PoleProximityError",
    "Polynomial",
    "QuadratureResult",
    "SequenceTooShortError",
    "SeriesReport",
    "TruncatedSeries",
    "bell_by_partitions",
    "binomial",
    "derivative_polynomial",
    "double_factorial_odd",
    "eta_integral_ref",
    "eta_ref",
    "eulerian",
    "factorial",
    "falling_factorial",
    "gamma_expansion",
    "gamma_integral_ref",
    "gamma_ref",
    "integral_identity_check",
    "interlacing_check",
    "mittag_leffler",
    "partial_bell",
    "potential_poly",
    "quad_exp_sinh",
    "quad_tanh_sinh",
    "reduced_polynomial",
    "riccati_derivative",
    "rising_factorial",
    "roots_in_unit_interval",
    "series_pow",
    "stirling1",
    "stirling2",
    "verify",
    "zeta_expansion",
    "zeta_ref",
]
