import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmeff import ParseError, consistent_pcm
from pcmeff.matrixio import format_matrix, parse_matrix, parse_matrix_csv

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
