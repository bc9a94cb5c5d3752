"""Exception types shared across the package, and the text reader."""


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


def _read_text(path) -> str:
    """A file's UTF-8 text with universal newlines, as text mode reads it;
    FormatError, with the line number, at the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # bytes split lines at \r\n, \r and \n only
        line = len((data[: exc.start] + b".").splitlines())
        raise FormatError(f"byte {data[exc.start]:#04x} is not UTF-8", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
