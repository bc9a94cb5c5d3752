"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all nfbsm errors."""


class ValidationError(Error):
    """A configuration value or type invariant is violated."""


class ContractError(Error):
    """Operands passed to an operation have inconsistent dimensions."""


class DomainError(Error):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedOrderError(DomainError):
    """A requested order exceeds the configured maximum."""


class DegenerateFieldError(Error):
    """A field ratio could not be formed because the denominator vanished."""


class DegenerateTargetError(Error):
    """An error metric is undefined because the target has zero norm."""


class NumericalRankError(Error):
    """A linear system is numerically rank deficient and its regularization,
    if any, is too small to fix that."""


class FormatError(Error):
    """A file does not conform to the expected line format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(Error):
    """File contents are well formed but violate the declared dimensions."""


class DataError(Error):
    """File contents contain invalid data values (NaN or infinity)."""
