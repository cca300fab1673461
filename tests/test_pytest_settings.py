"""The repo's pytest settings report a failing Hypothesis property like any failing test."""

import shutil
from pathlib import Path

pytest_plugins = "pytester"

_PROPERTY_BESIDE_A_PASSING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_does_not_abort_the_session(pytester):
    # on a failure, Hypothesis's explain phase imports libcst, which warns
    # DeprecationWarning at import; under "error::DeprecationWarning" alone that
    # aborts the whole session with an INTERNALERROR
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", pytester.path)
    pytester.makepyfile(test_property=_PROPERTY_BESIDE_A_PASSING_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.assert_outcomes(failed=1, passed=1)
