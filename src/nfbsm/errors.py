"""Exception types shared across the package, and the input line reader."""

from collections.abc import Iterator


class Error(Exception):
    """Base class for all nfbsm errors; ``.line`` is the input line at fault."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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


class SchemaError(Error):
    """File contents are well formed but violate the declared dimensions."""


class DataError(Error):
    """File contents contain invalid data values (NaN or infinity)."""


def _read_text(path) -> str:
    """A file's UTF-8 text; FormatError naming the line of the first byte
    that is not UTF-8 or is NUL (which no reader's fields may hold)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.partition(b"\0")[0]  # UTF-8 encodes no other character with 0x00
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:  # the bytes before exc.start decode
        line = len(_lines(head[: exc.start].decode("utf-8")))
        raise FormatError(f"byte {head[exc.start]:#04x} is not UTF-8", line) from None
    if len(head) < len(data):
        raise FormatError("byte 0x00 (NUL) is not allowed", len(_lines(text)))
    return text


def _lines(text: str) -> list[str]:
    """``text`` split where text mode ends a line, at ``\\r\\n``, ``\\r`` or
    ``\\n`` only (a form feed or U+2028 is an ordinary character).  Line N
    is item N - 1, and ``len(_lines(text))`` is the line where ``text`` ends."""
    if "\r" in text:  # two passes cost 1.4 ms a MB, so only where needed
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _content_lines(lines: list[str]) -> Iterator[tuple[int, str]]:
    """An iterator over the (line number, stripped text) of each of ``lines``
    non-blank once its # comment is cut; ``lines[0]`` is line 1."""
    return (
        (lineno, stripped)
        for lineno, line in enumerate(lines, start=1)
        if (stripped := line.partition("#")[0].strip())
    )
