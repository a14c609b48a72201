"""Shared result records and error types for the series evaluators."""

from __future__ import annotations

from typing import NamedTuple


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
