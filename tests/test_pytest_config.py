"""A failing hypothesis test fails alone under the repository's pytest config.

On a failure, hypothesis's pytest plugin imports libcst to write a patch,
and libcst's import of mypy_extensions warns a DeprecationWarning.  Under
``filterwarnings = ["error"]`` alone that warning ended the whole session
with INTERNALERROR, and the tests after the failing one never ran.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in run.stdout, output
    assert "INTERNALERROR" not in output
