"""The per-test time budget of conftest.py turns a hang into a failure."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ENDLESS = """\
import pytest


@pytest.mark.time_budget(0.5)
def test_endless_loop():
    while True:
        pass
"""


def test_an_endless_loop_fails_on_its_budget(tmp_path):
    """A copy of the conftest runs a test that never ends under a 0.5 s
    budget: the test fails with OverBudget and the session ends.
    Plugins are not autoloaded there, which saves a second of start-up."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_endless.py").write_text(ENDLESS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
    assert "OverBudget: the test ran past its budget of 0.5 s" in proc.stdout
