"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: parse problems are exit 2,
precondition violations exit 3, numerical failures exit 4.
"""

from __future__ import annotations


class GinvError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(GinvError, ValueError):
    """Operands have incompatible shapes (or a square matrix was required)."""


class NotGroupInvertibleError(GinvError, ValueError):
    """A group/core inverse was requested for a matrix of index > 1."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"matrix has index {index} > 1, group inverse undefined")


class ConvergenceError(GinvError, ArithmeticError):
    """An iterative LAPACK solver failed to converge."""


class IllConditionedError(GinvError, ArithmeticError):
    """Tolerance decisions came out mutually inconsistent or two routes disagree.

    When two routes to the same inverse disagree, both values are attached as
    ``value_a`` and ``value_b`` for inspection.
    """

    def __init__(self, message: str, value_a=None, value_b=None):
        self.value_a = value_a
        self.value_b = value_b
        super().__init__(message)


class DefiningEquationViolationError(GinvError, ArithmeticError):
    """A computed inverse violated its defining equations far beyond tolerance."""

    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        self.residuals = dict(residuals or {})
        super().__init__(message)


class InconsistentSystemError(GinvError, ArithmeticError):
    """The brute-force solver found no solution; signals an upstream bug."""


class InfeasibleSpecError(GinvError, ValueError):
    """A random-matrix generation spec cannot be realized."""


class MatrixParseError(GinvError, ValueError):
    """A matrix file failed to parse; carries the offending line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
