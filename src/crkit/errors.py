"""Exception types shared across the package."""

from __future__ import annotations


class CrkitError(Exception):
    """Base class for package errors."""


class ParseError(CrkitError):
    """Syntax or lookup failure while parsing an expression.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is None:
            super().__init__(message)
        else:
            super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DocumentError(CrkitError):
    """Validation failure of a serialized document.

    All problems found are collected and reported together, not just the
    first one.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class GeometryError(CrkitError):
    """A hypersurface-level check failed (reality, degenerate normal
    direction, or a coordinate change that did not produce the promised
    shape)."""


class PrerequisiteError(CrkitError):
    """An operation was invoked without its required prior verdicts."""
