"""The suite's own pytest setup: its ini settings and ``conftest.py`` as a run of them sees them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    """Under ``filterwarnings = ["error"]``, hypothesis's report of a failing example is a failure (exit 1), not an
    internal error (exit 3) that ends the run before the tests after it."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example: test_fails(" in output and "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output
