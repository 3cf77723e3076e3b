"""Text format for matrices: a "rows cols" header, then whitespace-separated
complex entries like ``2``, ``-1.5i``, ``3+4i`` or ``1-2j`` (no spaces inside
an entry).  Blank lines and ``#`` comments are skipped.  The header counts and
all digits are ASCII 0-9.  Printing always uses ``i`` and %.17g parts, so
print-then-parse round-trips every double exactly.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import MatrixParseError
from .matcore import as_matrix

__all__ = ["parse_matrix", "format_matrix", "load_matrix", "save_matrix"]

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# an entry is real, imaginary or both, as above; all digits are ASCII 0-9
_ENTRY = rf"[+-]?(?:{_FLOAT}(?:[+-](?:{_FLOAT})?[ij]|[ij])?|[ij])"
_RE_ENTRY = re.compile(_ENTRY, re.ASCII)
_RE_ENTRIES = re.compile(rf"{_ENTRY}(?: {_ENTRY})*", re.ASCII)  # joined by single spaces
_RE_COUNT = re.compile(r"[0-9]+")


def _count(token: str) -> int | None:
    """The header count ``token`` as an int, or None unless it is ASCII digits."""
    try:
        return int(token) if _RE_COUNT.fullmatch(token) else None
    except ValueError:  # more digits than int() converts
        return None


def _content_tokens(text: str):
    """Yield (token, line_number, column_number), 1-based, skipping comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        for m in re.finditer(r"\S+", stripped):
            yield m.group(0), lineno, m.start() + 1


def _first_fault(text: str) -> MatrixParseError:
    """The first error in a ``text`` that :func:`parse_matrix` rejected, with its
    line and column; builds no values."""
    tokens = _content_tokens(text)
    try:
        rows_tok, rline, rcol = next(tokens)
    except StopIteration:
        return MatrixParseError("empty matrix file", 1, 1)
    try:
        cols_tok, cline, ccol = next(tokens)
    except StopIteration:
        return MatrixParseError("header must be 'rows cols'", rline, rcol)
    rows, cols = _count(rows_tok), _count(cols_tok)
    if rows is None:
        return MatrixParseError(f"row count {rows_tok!r} is not an integer", rline, rcol)
    if cols is None:
        return MatrixParseError(f"column count {cols_tok!r} is not an integer", cline, ccol)
    if rows < 1 or cols < 1:
        return MatrixParseError(f"dimensions must be positive, got {rows} x {cols}", rline, rcol)

    # the header's count is checked against the entries found, not allocated
    count = rows * cols
    found = 0
    for token, line, col in tokens:
        if not _RE_ENTRY.fullmatch(token):
            return MatrixParseError(f"malformed entry {token!r}", line, col)
        found += 1
        if found == count:
            break
    if found < count:
        return MatrixParseError(f"expected {count} entries, found {found}", rline, rcol)
    for extra, line, col in tokens:
        return MatrixParseError(f"unexpected trailing token {extra!r}", line, col)
    raise AssertionError("parse_matrix rejected a text with no fault")


def parse_matrix(text: str) -> np.ndarray:
    """The matrix a matrix-file ``text`` spells; raises MatrixParseError at the
    first fault.  ``complex`` reads each entry with the correctly rounded parts."""
    content = "\n".join(line.split("#", 1)[0] for line in text.splitlines()) if "#" in text else text
    tokens = content.split()
    if len(tokens) >= 2:
        rows, cols = _count(tokens[0]), _count(tokens[1])
        if rows and cols and len(tokens) == 2 + rows * cols:
            body = " ".join(tokens[2:])
            if _RE_ENTRIES.fullmatch(body):
                values = np.array(list(map(complex, body.replace("i", "j").split(" "))), dtype=complex)
                return as_matrix(values.reshape(rows, cols))
    raise _first_fault(text)


# the spelling of an entry whose imaginary part is 0, whose real part is 0, and
# of any other; "%+.17g" of a nonzero part is its sign and "%.17g" of |part|
_ENTRY_FORMATS = np.array(["%.17g", "%.17gi", "%.17g%+.17gi"], dtype=object)


def _format_rows(a: np.ndarray) -> str:
    """The rows of ``a``, entries separated by spaces, written by one %-format."""
    real, imag = a.real, a.imag
    kind = np.where(imag == 0, 0, np.where(real == 0, 1, 2))
    keep = np.stack([kind != 1, kind != 0], -1)  # the parts each spelling prints
    template = "\n".join(map(" ".join, _ENTRY_FORMATS[kind].tolist()))
    return template % tuple(np.stack([real, imag], -1)[keep].tolist())


def format_matrix(a: np.ndarray) -> str:
    a = as_matrix(a)
    return f"{a.shape[0]} {a.shape[1]}\n{_format_rows(a)}\n"


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the position of the bad byte, counted as the parser counts lines and columns
        lines = (data[: exc.start].decode("utf-8") + "x").splitlines()
        raise MatrixParseError(f"byte {data[exc.start]:#04x} is not UTF-8", len(lines), len(lines[-1])) from None
    return parse_matrix(text)


def save_matrix(path, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a))
