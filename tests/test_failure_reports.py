"""The suite's own warning filters must let a failing test report itself."""

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails_from_ten_on(x):
    assert x < 10


def test_after_the_failure():
    pass
"""


def test_failing_property_test_shows_its_counterexample(pytester, pytestconfig):
    # on failure the hypothesis plugin imports libcst, whose import warns; under
    # error::DeprecationWarning that ended the run in INTERNALERROR, and the
    # tests after the failing one never ran
    filters = "".join(f"    {f}\n" for f in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}")
    pytester.makepyfile(FAILING_PROPERTY_THEN_PASSING_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1, passed=1)
    assert "1 failed, 1 passed" in result.stdout.lines[-1]
