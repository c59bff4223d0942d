"""The repository's pytest configuration."""
from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_named_and_later_tests_run(tmp_path):
    # A failing @given test makes hypothesis import libcst, which warns with
    # a DeprecationWarning. Under the config's warning filters that warning
    # must not stop the run with INTERNALERROR, which names no failed test
    # and runs none after it.
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_fails" in out
    assert "1 passed" in out
