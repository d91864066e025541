"""The suite's own pytest settings: every warning fails a test, except the one
that the Hypothesis plugin trips while it reports a failing example."""

import pathlib
import subprocess
import sys
import warnings

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                             "--rootdir", str(tmp_path), "test_probe.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout


def test_every_other_warning_still_fails():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)
