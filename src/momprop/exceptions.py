"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UndefinedMomentError(DomainError):
    """A requested moment does not exist for the given parameter values."""


class NumericError(RuntimeError):
    """A numeric routine failed on valid input: an iteration did not
    converge, a matrix lost positive definiteness, or a value overflowed.
    The message says which."""
