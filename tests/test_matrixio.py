import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import ParseError, consistent_pcm
from pcmeff.matrixio import format_matrix, load_matrix, parse_matrix, parse_matrix_csv

EXAMPLE1_TEXT = """\
# 4x4 with an inefficient eigenvector
4
1    1/2  4  2
2    1    5  7
1/4  1/5  1  2    # rationals keep quoted entries exact
1/2  1/7  1/2  1
"""


def test_parse_with_rationals_and_comments():
    a = parse_matrix(EXAMPLE1_TEXT)
    assert a.shape == (4, 4)
    assert a[1, 3] == 7.0
    assert a[3, 1] == 1.0 / 7.0
    assert a[0, 1] == 0.5


def test_parse_plain_floats():
    a = parse_matrix("2\n1.0 0.25\n4.0 1.0\n")
    assert np.array_equal(a, [[1.0, 0.25], [4.0, 1.0]])


def test_empty_input_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_matrix("# only comments\n\n")


def test_bad_header_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_matrix("garbage here\n")
    assert exc.value.line == 1


def test_bad_token_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_matrix("2\n1 2\n0.5 oops\n")
    assert exc.value.line == 3
    assert exc.value.column == 5


def test_wrong_value_count_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_matrix("3\n1 2 3\n1 2\n1 2 3\n")
    assert exc.value.line == 3


def test_missing_rows_detected():
    with pytest.raises(ParseError):
        parse_matrix("3\n1 1 1\n1 1 1\n")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_matrix("2\n1 1/0\n1 1\n")


def test_parse_csv():
    a = parse_matrix_csv("1, 2, 6\n1/2, 1, 3\n1/6, 1/3, 1\n")
    assert a.shape == (3, 3)
    assert a[2, 0] == pytest.approx(1 / 6)


def test_csv_shape_errors():
    with pytest.raises(ParseError):
        parse_matrix_csv("1, 2\n0.5, 1, 3\n")
    with pytest.raises(ParseError):
        parse_matrix_csv("1, 2, 3\n1, 1, 1\n")


def test_format_round_trip_exact():
    m = consistent_pcm([2.0, 6.0, 1 / 7])
    text = format_matrix(m.entries)
    assert np.array_equal(parse_matrix(text), m.entries)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(st.floats(min_value=1 / 9, max_value=9.0), min_size=1, max_size=6))
def test_format_round_trip_random(xs):
    a = consistent_pcm(xs).entries
    assert np.array_equal(parse_matrix(format_matrix(a)), a)


# --- reference: the per-token parser, as it read files before rows were mapped

def _ref_value(token, line_no, column):
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


def _ref_content_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            yield line_no, content


def _ref_row(content, line_no, n):
    values = []
    column = 0
    for token in content.split():
        column = content.index(token, column)
        values.append((_ref_value(token, line_no, column + 1), column + 1))
        column += len(token)
    if len(values) != n:
        col = values[n][1] if len(values) > n else len(content.rstrip()) + 1
        raise ParseError(f"expected {n} values, found {len(values)}", line_no, col)
    return [v for v, _ in values]


def reference_parse_matrix(text):
    lines = list(_ref_content_lines(text))
    if not lines:
        raise ParseError("empty input", 1)
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
    return np.array([_ref_row(content, row_line, n) for row_line, content in lines[1:]],
                    dtype=float)


def reference_parse_matrix_csv(text):
    lines = list(_ref_content_lines(text))
    if not lines:
        raise ParseError("empty input", 1)
    rows = []
    n = None
    for line_no, content in lines:
        cells = content.split(",")
        if n is None:
            n = len(cells)
        elif len(cells) != n:
            raise ParseError(f"expected {n} cells, found {len(cells)}", line_no)
        row = []
        column = 0
        for cell in cells:
            stripped = cell.strip()
            if not stripped:
                raise ParseError("empty cell", line_no, column + 1)
            row.append(_ref_value(stripped, line_no, content.index(stripped, column) + 1))
            column += len(cell) + 1
        rows.append(row)
    if len(rows) != n:
        raise ParseError(f"expected {n} rows for a square matrix, found {len(rows)}",
                         lines[-1][0])
    return np.array(rows, dtype=float)


def outcome(parse, *args):
    """An array's shape and bytes, or an error's class, message, line and column."""
    try:
        a = parse(*args)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return a.shape, a.tobytes()


def load_outcome(text, parse):
    """``outcome`` of ``load_matrix`` on ``text`` written as UTF-8; the format is
    named by the parser."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return outcome(load_matrix, path, "txt" if parse is parse_matrix else "csv")
    finally:
        os.remove(path)


# Numbers float() reads, rationals, and tokens that fail in either branch.
GOOD_TOKENS = ["1", "0.5", "2.25e-3", "1e308", "1e400", "-0", "nan", "inf", "-inf",
               "1_000", "+3", ".5", "0.1428571428571428", "\u0663", "7"]
RATIONAL_TOKENS = ["1/7", "3/2", "-1/4", "1_0/3", "1e3/7", "inf/2"]
BAD_TOKENS = ["oops", "1/0", "0/0", "1/x", "/", "1//2", "1__0", "0x10", "1/", "--1", "1e"]
good_token = st.one_of(st.sampled_from(GOOD_TOKENS), st.sampled_from(RATIONAL_TOKENS),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
token = st.one_of(good_token, st.sampled_from(BAD_TOKENS))
gap = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0"])
newline = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def matrix_texts(draw):
    """Plain-text files around an order n: mostly well formed, with comments,
    blank lines and CRLF, and now and then a row of the wrong length, a
    missing or extra row, or a bad token before or after an extra value."""
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(max(n - 1, 0), n + 1)) if draw(st.booleans()) else n
    nl = draw(newline)
    lines = []
    if draw(st.booleans()):
        lines.append("# a comment line")
    lines.append(f"{n}" + draw(st.sampled_from(["", "  # order", "\t"])))
    for _ in range(rows):
        count = draw(st.sampled_from([n, n, n, n, n - 1, n + 1]))
        tokens = [draw(good_token if draw(st.integers(0, 9)) else token) for _ in range(count)]
        line = draw(st.sampled_from(["", " ", "\t"])) + "".join(
            t + draw(gap) for t in tokens[:-1]) + (tokens[-1] if tokens else "")
        if draw(st.booleans()):
            line += draw(st.sampled_from(["", " "])) + "# note 1/0"
        lines.append(line)
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from(["", "   ", "# between rows"])))
    return nl.join(lines) + draw(st.sampled_from(["", nl]))


@st.composite
def csv_texts(draw):
    """CSV files: padded cells (including a pad ``float`` keeps but
    ``str.strip`` drops), empty cells, rationals, bad cells, cells holding
    two numbers, wrong counts."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(max(n - 1, 1), n + 1)) if draw(st.booleans()) else n
    pad = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\x1f"])
    cell = st.one_of(st.sampled_from(GOOD_TOKENS), st.sampled_from(RATIONAL_TOKENS),
                     st.sampled_from(BAD_TOKENS + ["", " ", "1 2", "3\t1/4"]))
    lines = []
    for _ in range(rows):
        count = draw(st.sampled_from([n, n, n, n - 1, n + 1])) or 1
        lines.append(",".join(draw(pad) + draw(cell) + draw(pad) for _ in range(count)))
    return draw(newline).join(lines) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrix_texts())
def test_row_parser_equals_the_per_token_parser(text):
    expected = outcome(reference_parse_matrix, text)
    assert outcome(parse_matrix, text) == expected
    assert load_outcome(text, parse_matrix) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(csv_texts())
def test_csv_row_parser_equals_the_per_cell_parser(text):
    expected = outcome(reference_parse_matrix_csv, text)
    assert outcome(parse_matrix_csv, text) == expected
    assert load_outcome(text, parse_matrix_csv) == expected


def test_rational_mid_row_keeps_the_row_whole():
    a = parse_matrix("3\n1 1/2 4\n2 1 1/3\n1/4 3 1\n")
    assert np.array_equal(a, [[1, 0.5, 4], [2, 1, 1 / 3], [0.25, 3, 1]])
    b = parse_matrix_csv("1, 1/2, 4\n2, 1, 1/3\n1/4, 3, 1\n")
    assert a.tobytes() == b.tobytes()


def test_byte_order_mark_is_accepted(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"2\n1 2\n1/2 1\n")
    marked.write_bytes(b"\xef\xbb\xbf2\n1 2\n1/2 1\n")
    assert load_matrix(str(marked)).tobytes() == load_matrix(str(plain)).tobytes()
    marked.write_bytes(b"\xef\xbb\xbf1, 2\n1/2, 1\n")
    assert np.array_equal(load_matrix(str(marked), "csv"), [[1, 2], [0.5, 1]])


@pytest.mark.parametrize("data, message, line, column", [
    (b"\xff\xfe3", "undecodable byte 0xff at offset 0", 1, 1),
    ("2\n1 2\n1/2 1\n".encode("utf-16"), "undecodable byte 0xff at offset 0", 1, 1),
    (b"2\n1 2\n1/2 \xe9 1\n", "undecodable byte 0xe9 at offset 10", 3, 5),
    # lines are counted as the parser counts them, a lone CR included
    (b"2\r1 2\r1/2 \xff 1\r", "undecodable byte 0xff at offset 10", 3, 5),
    # the offset counts the byte-order mark, the column counts characters
    (b"\xef\xbb\xbf2\r\n1 \xe2\x82\xac\r\n1/2 1\xc3", "undecodable byte 0xc3 at offset 18", 3, 6),
])
def test_undecodable_bytes_are_a_parse_error(tmp_path, data, message, line, column):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    for fmt in ("txt", "csv"):
        with pytest.raises(ParseError) as exc:
            load_matrix(str(path), fmt)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"line {line}, column {column}: {message}; expected UTF-8", line, column)
