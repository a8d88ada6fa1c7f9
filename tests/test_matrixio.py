import math
import os
import random
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import ParseError, matrixio
from pcmeff.matrixio import format_matrix, load_matrix, parse_matrix, parse_matrix_csv

from conftest import consistent_pcm

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


# Numbers numpy's reader and float() both read; numbers only float() reads;
# rationals; and tokens that fail in every reader.
PLAIN_TOKENS = ["1", "0.5", "2.25e-3", "1e308", "1e400", "-0", "nan", "inf", "-inf", "+3",
                ".5", "0.1428571428571428", "7", "Infinity", "-nan", "5e-324", "1E5"]
LINE_PARSER_TOKENS = ["1_000", "\u0663", "1/7", "3/2", "-1/4", "1_0/3", "1e3/7", "inf/2"]
BAD_TOKENS = ["oops", "1/0", "0/0", "1/x", "/", "1//2", "1__0", "0x10", "1/", "--1", "1e",
              "2#c", "#"]
# Where str.split, str.splitlines and numpy's reader could part ways: NUL, the
# ASCII separators \x1c-\x1f, and the line breaks beyond \r and \n.
ODD_CHARS = ["\x00", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028"]
GAPS = [" ", "  ", "\t", " \t ", "\u00a0", "\x1f"]
COMMENTS = ["# note 1/0", "#1 2", "# façade, 1/0", "#\u00a0ü 2"]
FILLERS = ["", "   ", "\t", "# between rows", "#", "# ñandú"]
newline = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def texts_around_an_order(draw):
    """An order n, a row count, and a seeded source of the file's characters.

    Most files have n rows, some one too few or too many, some none (a body
    of comments and blank lines); most rows are n values wide, in some files
    all are one narrower or wider.  ``hit()`` is true at a spot with the file's
    defect rate, zero in half of the files; ``value()`` draws numbers, and in
    half of the files now and then a rational or a number only float() reads.
    Drawing the characters from one seed keeps an example of order 12 cheap.
    """
    n = draw(st.sampled_from(range(1, 13)))
    rows = draw(st.sampled_from([n] * 7 + [n - 1, n + 1, 0]))
    width = draw(st.sampled_from([n] * 8 + [n - 1, n + 1]))
    rate = draw(st.sampled_from([0.0, 0.0, 0.0, 0.01, 0.05, 0.3]))
    mixed = draw(st.booleans())
    r = random.Random(draw(st.integers(0, 2**32 - 1)))

    def value():
        source = r.randrange(4 if mixed else 3)
        if source == 0:
            return r.choice(PLAIN_TOKENS)
        if source == 1:
            return repr(math.exp(r.uniform(-5.0, 5.0)))
        if source == 2:
            v = struct.unpack("<d", r.getrandbits(64).to_bytes(8, "little"))[0]
            return repr(v) if math.isfinite(v) else "0.25"
        return r.choice(LINE_PARSER_TOKENS)

    return n, max(rows, 0), max(width, 1), r, lambda: r.random() < rate, value


def joined(r, hit, lines, nl, odd):
    """``lines`` ended by ``nl``, or at a hit by ``odd``, now and then without a last end."""
    ends = [odd if hit() else nl for _ in lines]
    if ends and r.random() < 0.5:
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@st.composite
def matrix_texts(draw):
    """Plain-text files around an order n: mostly well formed, with comments
    (glued to a value or not, some non-ASCII), blank lines, CRLF, and at a
    defect a bad token, a row of the wrong length, or an odd character as a
    gap or a line end."""
    n, rows, width, r, hit, value = draw(texts_around_an_order())
    odd, nl = draw(st.sampled_from(ODD_CHARS)), draw(newline)
    lines = []
    if r.random() < 0.5:
        lines.append(r.choice(["# a comment line", "# matrice n° 1 — ü"]))
    lines.append(f"{n}" + r.choice(["", "  # order", "\t", "#ordre"]))
    if not rows or r.random() < 0.2:
        lines.append(r.choice(FILLERS))
    for _ in range(rows):
        tokens = [r.choice(BAD_TOKENS) if hit() else value()
                  for _ in range(r.choice([n - 1, n + 1]) if hit() else width)]
        line = r.choice(["", " ", "\t"]) + "".join(
            t + (odd if hit() else r.choice(GAPS)) for t in tokens[:-1]) + "".join(tokens[-1:])
        if r.random() < 0.5:
            line += r.choice(["", " "]) + r.choice(COMMENTS) + (odd + "1" if hit() else "")
        lines.append(line)
        if r.random() < 0.2:
            lines.append(r.choice(FILLERS))
    return joined(r, hit, lines, nl, odd)


@st.composite
def csv_texts(draw):
    """CSV files: padded cells (including pads ``float`` keeps but
    ``str.strip`` drops), rationals, comments and blank lines, and at a
    defect an empty, bad or two-number cell, a row of the wrong length, or
    an odd character as a pad or a line end."""
    n, rows, width, r, hit, value = draw(texts_around_an_order())
    odd, nl = draw(st.sampled_from(ODD_CHARS)), draw(newline)
    bad_cells = BAD_TOKENS + ["", " ", "1 2", "3\t1/4"]

    def pad():
        return odd if hit() else r.choice(["", "", " ", "  ", "\t", "\u00a0", "\x1f"])

    lines = [r.choice(FILLERS) for _ in range(r.randrange(3))] if not rows else []
    for _ in range(rows):
        count = max(r.choice([n - 1, n + 1]) if hit() else width, 1)
        line = ",".join(pad() + (r.choice(bad_cells) if hit() else value()) + pad()
                        for _ in range(count))
        if r.random() < 0.25:
            line += r.choice(COMMENTS) + (odd + "1" if hit() else "")
        lines.append(line)
        if r.random() < 0.2:
            lines.append(r.choice(FILLERS))
    return joined(r, hit, lines, nl, odd)


def assert_readers_agree(text, parse, reference):
    """``parse`` and ``load_matrix`` on ``text`` give the reference's outcome, with
    every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = outcome(reference, text)
        assert outcome(parse, text) == expected
        assert load_outcome(text, parse) == expected


@settings(max_examples=400, derandomize=True, deadline=None)
@given(matrix_texts())
def test_row_parser_equals_the_per_token_parser(text):
    assert_readers_agree(text, parse_matrix, reference_parse_matrix)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(csv_texts())
def test_csv_row_parser_equals_the_per_cell_parser(text):
    assert_readers_agree(text, parse_matrix_csv, reference_parse_matrix_csv)


@pytest.mark.parametrize("odd", ODD_CHARS)
def test_odd_characters_read_as_the_reference_reads_them(odd):
    for text in (f"2{odd}1 0.5{odd}2 1{odd}", f"2\n1{odd}0.5\n2 1\n", f"2\n1 0.5\n2 1{odd}\n",
                 f"2\n1 0.5 #{odd} 3\n2 1\n", f"2\n1{odd}\n0.5\n2 1\n"):
        assert_readers_agree(text, parse_matrix, reference_parse_matrix)
    for text in (f"1, 0.5{odd}2, 1{odd}", f"1,{odd}0.5{odd}\n2 ,1\n", f"1, 0.5 #{odd}3\n2, 1\n"):
        assert_readers_agree(text, parse_matrix_csv, reference_parse_matrix_csv)


@pytest.mark.parametrize("text", ["1\n1 2\n", "2\n1 2 3\n4 5 6\n", "2\n1\n2\n",
                                  "3\n1 2\n1 2\n1 2\n"])
def test_rows_all_of_a_wrong_width_are_an_error(text):
    assert_readers_agree(text, parse_matrix, reference_parse_matrix)
    with pytest.raises(ParseError, match="expected . values, found ."):
        parse_matrix(text)
    csv = text.split("\n", 1)[1].replace(" ", ",")
    assert_readers_agree(csv, parse_matrix_csv, reference_parse_matrix_csv)


@pytest.mark.parametrize("text, parse, message", [
    ("3\n# c\n", parse_matrix, "line 1, column 1: expected 3 matrix rows, found 0"),
    ("# c\n\n", parse_matrix_csv, "line 1, column 1: empty input"),
])
def test_a_body_without_rows_is_a_parse_error_without_a_warning(text, parse, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse(text)
    assert_readers_agree(text, parse, reference_parse_matrix if parse is parse_matrix
                         else reference_parse_matrix_csv)


def test_plain_rows_are_read_without_the_line_parser(monkeypatch):
    def refuse(*args):
        raise AssertionError("the line parser read a plain row")

    monkeypatch.setattr(matrixio, "_parse_row", refuse)
    monkeypatch.setattr(matrixio, "_parse_csv_row", refuse)
    a = np.exp(np.random.default_rng(5).normal(size=(12, 12)))
    text = "# order\r\n" + format_matrix(a).replace("\n", "  # row\r\n\n", 2)
    assert parse_matrix(text).tobytes() == a.tobytes()
    csv = "\n".join(" , ".join(repr(v) for v in row) for row in a.tolist())
    assert parse_matrix_csv(csv).tobytes() == a.tobytes()


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


@pytest.mark.parametrize("call, error, message", [
    (lambda path: parse_matrix("0\n"), ParseError,
     "line 1, column 1: matrix order must be positive, got 0"),
    (lambda path: load_matrix(path, "xml"), ValueError,
     "unknown format 'xml'; expected one of ('txt', 'csv')"),
])
def test_rejections_carry_their_exact_type_and_message(tmp_path, call, error, message):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 2\n1/2 1\n")
    with pytest.raises(error) as exc:
        call(str(path))
    assert (type(exc.value), str(exc.value)) == (error, message)
