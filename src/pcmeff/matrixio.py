"""Reading and writing matrix files.

Plain-text format: ``#`` starts a comment, blank lines are ignored, the
first content line is the order n, then n rows of n whitespace-separated
values.  Values are decimal literals or exact rationals written p/q (so a
matrix quoted with entries like 1/7 survives a round trip without
transcription rounding).  CSV: one row per line, comma-separated, order
inferred from the first row; the same value syntax applies.  Files are
UTF-8, with or without a byte-order mark.

The rows of both formats are read by one call to numpy's C text reader
(``np.loadtxt``) when it takes them all: the reader gets the content lines
the line parser sees (``str.splitlines``, comments cut off) and splits them
on the whitespace or commas ``str.split`` splits on.  It converts each value
with ``PyOS_string_to_double``, the core of ``float()``, and rejects a value
it does not consume whole, so it reads a subset of ``float()``'s syntax (no
``1_000``, no non-ASCII digits) and its values are bit-identical to the
line parser's.  Where it rejects a value or a row's length, the line parser
reads the rows: ``p/q`` values, other spellings and every
:class:`ParseError`, with its line and column, come from there.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError

FORMATS = ("txt", "csv")


def _parse_value(token: str, line_no: int, column: int) -> float:
    if "/" in token:
        num_s, _, den_s = token.partition("/")
        try:
            num, den = float(num_s), float(den_s)
        except ValueError:
            raise ParseError(f"bad rational literal {token!r}", line_no, column) from None
        if den == 0:
            raise ParseError(f"zero denominator in {token!r}", line_no, column)
        return num / den
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad numeric literal {token!r}", line_no, column) from None


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line_no, content) of the lines that are not blank or a comment."""
    lines = [(line_no, raw.partition("#")[0]) for line_no, raw in enumerate(text.splitlines(), 1)]
    if not (lines := [line for line in lines if line[1].strip()]):
        raise ParseError("empty input", 1)
    return lines


def _tokens_with_columns(content: str):
    column = 0
    for token in content.split():
        column = content.index(token, column)
        yield token, column + 1
        column += len(token)


def _parse_row(content: str, line_no: int, n: int) -> list[float]:
    values = [(_parse_value(tok, line_no, col), col)
              for tok, col in _tokens_with_columns(content)]
    if len(values) != n:
        col = values[n][1] if len(values) > n else len(content.rstrip()) + 1
        raise ParseError(f"expected {n} values, found {len(values)}", line_no, col)
    return [v for v, _ in values]


def _parse_csv_row(content: str, line_no: int, n: int) -> list[float]:
    cells = content.split(",")
    if len(cells) != n:
        raise ParseError(f"expected {n} cells, found {len(cells)}", line_no)
    row, column = [], 0
    for cell in cells:
        stripped = cell.strip()
        if not stripped:
            raise ParseError("empty cell", line_no, column + 1)
        row.append(_parse_value(stripped, line_no, content.index(stripped, column) + 1))
        column += len(cell) + 1
    return row


def _read_rows(lines, n: int, delimiter: str | None, parse_row) -> np.ndarray:
    """Rows of n values from content lines: one call to numpy's C reader, or, where it
    rejects a value or a row's length, ``parse_row`` on each line (p/q, errors)."""
    try:
        rows = np.loadtxt([content for _, content in lines], dtype=float, comments=None,
                          delimiter=delimiter, ndmin=2)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != n:
        rows = np.array([parse_row(content, line_no, n) for line_no, content in lines],
                        dtype=float)
    return rows


def parse_matrix(text: str) -> np.ndarray:
    """Parse the plain-text format into a float array (unvalidated)."""
    lines = _content_lines(text)
    line_no, head = lines[0]
    tokens = head.split()
    if len(tokens) != 1:
        raise ParseError("first content line must be the matrix order alone", line_no)
    try:
        n = int(tokens[0])
    except ValueError:
        raise ParseError(f"bad matrix order {tokens[0]!r}", line_no, 1) from None
    if n < 1:
        raise ParseError(f"matrix order must be positive, got {n}", line_no, 1)
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}", line_no)
    return _read_rows(lines[1:], n, None, _parse_row)


def parse_matrix_csv(text: str) -> np.ndarray:
    """Parse the CSV format into a float array (unvalidated)."""
    lines = _content_lines(text)
    n = lines[0][1].count(",") + 1
    rows = _read_rows(lines, n, ",", _parse_csv_row)
    if len(lines) != n:
        raise ParseError(f"expected {n} rows for a square matrix, found {len(lines)}",
                         lines[-1][0])
    return rows


def load_matrix(path: str, fmt: str = "txt") -> np.ndarray:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object lacks a dropped BOM; "?" is the bad byte
        at = exc.start + len(data) - len(exc.object)
        lines = (data[:at].decode("utf-8-sig") + "?").splitlines()
        raise ParseError(f"undecodable byte {data[at]:#04x} at offset {at}; expected UTF-8",
                         len(lines), len(lines[-1])) from None
    return parse_matrix(text) if fmt == "txt" else parse_matrix_csv(text)


def format_matrix(a: np.ndarray) -> str:
    """Render in the plain-text format; floats keep full precision."""
    a = np.asarray(a)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
