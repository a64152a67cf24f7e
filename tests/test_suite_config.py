"""The suite's own configuration still lets a failing test report itself.

`pyproject.toml` turns every DeprecationWarning into an error.  A failing
hypothesis test reports its falsifying example through libcst, whose
import warns, so without the filter's one exception pytest printed an
INTERNALERROR and no example.  The check runs pytest in a subprocess on
a copy of the project's pytest settings: in process, modules imported by
this run would not warn again.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_example(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    test = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5
        """
    )
    result = pytester.runpytest_subprocess(str(test), "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
