"""Shared exception types."""


class QuivalgError(Exception):
    """Base class for all engine errors."""


class InputError(QuivalgError):
    """Malformed or rejected input (bad presentation, violated precondition)."""


class UnsupportedFieldError(QuivalgError):
    """The field modulus is too large for exact int64 products (p >= 2^31)."""


class BudgetError(QuivalgError):
    """A configured dimension budget would be exceeded."""


class InternalCheckError(QuivalgError):
    """An internal consistency cross-check failed; indicates a bug, not bad data."""
