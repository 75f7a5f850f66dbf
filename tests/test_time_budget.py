"""The per-test budgets of conftest.py turn a hang or a runaway
allocation into a failure, and its hypothesis hook keeps the literals
of src out of the draws."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TEST_MEMORY_BYTES

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


def test_a_test_runs_under_the_memory_budget():
    """Inside a test the address space is capped at the budget, so an
    allocation without bound raises MemoryError."""
    resource = pytest.importorskip("resource")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= TEST_MEMORY_BYTES


def test_src_literals_stay_out_of_hypothesis_draws():
    """With no module local, no nullkit constant, such as the search
    budget 20,000 or the oracle's point limit 128, reaches the draws."""
    providers = pytest.importorskip("hypothesis.internal.conjecture.providers")
    if not hasattr(providers, "is_local_module_file"):
        pytest.skip("this hypothesis has no local-constants hook")
    from nullkit.conjectures import _SEARCH_BUDGET
    from nullkit.varieties import ORACLE_POINT_LIMIT
    integers = set(providers._get_local_constants().integers)
    assert not integers & {_SEARCH_BUDGET, ORACLE_POINT_LIMIT}
