"""Text format for matrices: a "rows cols" header, then whitespace-separated
complex entries like ``2``, ``-1.5i``, ``3+4i`` or ``1-2j`` (no spaces inside
an entry).  Blank lines and ``#`` comments are skipped.  Printing always uses
``i`` and %.17g parts, so print-then-parse round-trips every double exactly.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import MatrixParseError
from .matcore import as_matrix

__all__ = ["parse_matrix", "format_matrix", "load_matrix", "save_matrix"]

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_FLOAT}$")
_RE_IMAG = re.compile(rf"^(?P<coeff>[+-]?(?:{_FLOAT})?)[ij]$")
_RE_BOTH = re.compile(rf"^(?P<real>[+-]?{_FLOAT})(?P<coeff>[+-](?:{_FLOAT})?)[ij]$")
# entries (real, imaginary or both, as above) separated by single spaces
_ENTRY = rf"[+-]?(?:{_FLOAT}(?:[+-](?:{_FLOAT})?[ij]|[ij])?|[ij])"
_RE_ENTRIES = re.compile(rf"{_ENTRY}(?: {_ENTRY})*", re.ASCII)


def _imag_coeff(text: str) -> float:
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    return float(text)


def _parse_entry(token: str, line: int, column: int) -> complex:
    m = _RE_BOTH.match(token)
    if m:
        return complex(float(m.group("real")), _imag_coeff(m.group("coeff")))
    m = _RE_IMAG.match(token)
    if m:
        return complex(0.0, _imag_coeff(m.group("coeff")))
    if _RE_REAL.match(token):
        return complex(float(token), 0.0)
    raise MatrixParseError(f"malformed entry {token!r}", line, column)


def _content_tokens(text: str):
    """Yield (token, line_number, column_number), 1-based, skipping comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        for m in re.finditer(r"\S+", stripped):
            yield m.group(0), lineno, m.start() + 1


def _parse_fast(text: str) -> np.ndarray | None:
    """The entries of a well-formed ``text`` in one pass, or None.

    None leaves ``text`` to :func:`_parse_tokens`, which either accepts it
    with the same values or raises the positioned error.  The one regular
    expression spells the entry grammar in ASCII, so anything it accepts the
    per-token grammar accepts, and ``complex`` reads each entry with the
    correctly rounded parts ``float`` gives.
    """
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except (IndexError, ValueError):
        return None
    if rows < 1 or cols < 1 or len(tokens) != 2 + rows * cols:
        return None
    body = " ".join(tokens[2:])
    if not _RE_ENTRIES.fullmatch(body):
        return None
    return np.array(list(map(complex, body.replace("i", "j").split(" "))), dtype=complex).reshape(rows, cols)


def _parse_tokens(text: str) -> np.ndarray:
    """The entries of ``text``, token by token, each error with its line and column."""
    tokens = _content_tokens(text)
    try:
        rows_tok, rline, rcol = next(tokens)
    except StopIteration:
        raise MatrixParseError("empty matrix file", 1, 1) from None
    try:
        cols_tok, cline, ccol = next(tokens)
    except StopIteration:
        raise MatrixParseError("header must be 'rows cols'", rline, rcol) from None
    try:
        rows = int(rows_tok)
    except ValueError:
        raise MatrixParseError(f"row count {rows_tok!r} is not an integer", rline, rcol) from None
    try:
        cols = int(cols_tok)
    except ValueError:
        raise MatrixParseError(f"column count {cols_tok!r} is not an integer", cline, ccol) from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"dimensions must be positive, got {rows} x {cols}", rline, rcol)

    # the header's count is checked against the entries found before anything
    # of that size is allocated
    count = rows * cols
    entries = []
    for token, line, col in tokens:
        entries.append(_parse_entry(token, line, col))
        if len(entries) == count:
            break
    if len(entries) < count:
        raise MatrixParseError(f"expected {count} entries, found {len(entries)}", rline, rcol)
    for extra, line, col in tokens:
        raise MatrixParseError(f"unexpected trailing token {extra!r}", line, col)
    return np.array(entries, dtype=complex).reshape(rows, cols)


def parse_matrix(text: str) -> np.ndarray:
    entries = _parse_fast(text)
    return as_matrix(entries if entries is not None else _parse_tokens(text))


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


def format_entry(z: complex) -> str:
    return _format_rows(np.array([[z]], dtype=complex))


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
