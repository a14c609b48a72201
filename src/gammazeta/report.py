"""Shared result records and error types for the series evaluators."""

from __future__ import annotations

from typing import NamedTuple

#: the verify suites in run order, the seed of their randomized checks,
#: and the defaults of the quadrature rules; kept here, where the parser
#: reads them without running verify or oracles
VERIFY_SUITES = ("stirling", "bell", "c", "ml", "b", "poly", "oracle", "integral")
DEFAULT_SEED = 20214097
DEFAULT_QUAD_TOL = 1e-10
DEFAULT_QUAD_BUDGET = 2_000_000


class DomainError(ValueError):
    """Argument outside the numeric domain an operation supports."""


class PoleProximityError(DomainError):
    """Evaluation would divide by a (near-)vanishing pole factor."""


class BudgetExceededError(RuntimeError):
    """A quadrature gave up before reaching the requested tolerance."""


class DefectError(RuntimeError):
    """An identity the implementation is contractually bound to uphold
    failed; indicates a defect, not a caller mistake."""


class SeriesReport(NamedTuple):
    """Outcome of evaluating a truncated expansion at one argument.

    ``partial_sum`` is the truncated value, ``term_magnitudes[i]`` the
    absolute value of the i-th term. ``reference`` is an independently
    computed target value; errors are against it (``rel_error`` is
    infinite when the reference is 0).
    """

    s: complex
    terms: int
    path: str
    partial_sum: complex
    reference: complex
    abs_error: float
    rel_error: float
    term_magnitudes: list[float]
