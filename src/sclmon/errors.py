"""Exception types shared across the package."""

import math


class SclError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SclError):
    """Syntax or semantic error in formula text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class HorizonError(SclError):
    """The trace is too short (or a window reaches outside a signal's domain)."""


class TraceError(SclError):
    """Malformed trace data (CSV or in-memory samples)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def require_finite(what: str, **args: float) -> None:
    """Reject a NaN or infinite numeric argument of ``what`` before any work;
    ``x <= 0``-style range checks are false for NaN and would let it through."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise SclError(f"{what}: {name} must be finite, got {value}")
