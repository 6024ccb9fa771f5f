"""Semantic exception hierarchy shared across the package."""


class WelfareaxError(Exception):
    """Base class for all package-specific errors."""


class ProfileParseError(WelfareaxError):
    """Malformed profile text; carries 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ConfigError(WelfareaxError):
    """Malformed ordering / axiom-instance configuration document."""


class DomainError(WelfareaxError):
    """A value fell outside the domain of a concave transform g."""


class MissingLambda(WelfareaxError):
    """No weight defined for the requested population size."""


class InfeasibleParameters(WelfareaxError, ValueError):
    """Arguments violate a guard (a malformed level, an empty profile, a
    magnitude ordering, a proposition hypothesis, ...).

    Also a ``ValueError``, so a caller that catches the ``ValueError`` of a
    bad argument catches it too.
    """


class FloatRangeError(WelfareaxError, OverflowError):
    """A float valuation needs a number beyond the float range.

    Also an ``OverflowError``, so a caller that catches the ``OverflowError``
    of float arithmetic catches it too.
    """


class SizeMismatch(WelfareaxError):
    """Operation requires equal population sizes."""


class MaterializeError(WelfareaxError):
    """Profile too large to expand entry-by-entry."""


class CertificateError(WelfareaxError):
    """Malformed derivation-chain certificate."""
