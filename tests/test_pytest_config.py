"""The repo's pytest settings let a failing hypothesis test fail alone."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_others_running(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    config = os.path.join(ROOT, "pyproject.toml")
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config, "--rootdir", str(tmp_path)]
    res = subprocess.run(
        [sys.executable, *argv, str(tmp_path / "test_pair.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout, res.stdout + res.stderr
