"""A wall-time and a memory budget for every test.

A test that runs past its budget fails with OverBudget instead of
hanging the suite.  The budget is TEST_BUDGET_S seconds, far above the
slowest test (about 4 s); a test can set its own with
@pytest.mark.time_budget(seconds).  SIGALRM from signal.setitimer keeps
it, so it holds where setitimer exists and interrupts the main thread
only.

A test that allocates without bound fails with MemoryError instead of
exhausting the machine: a soft RLIMIT_AS of TEST_MEMORY_BYTES (or the
lower limit already in force) holds during each test and the previous
limit comes back after it.  The whole suite peaks near 660 MB of
address space.  It holds where the resource module exists.

The suite runs from a clean checkout, with no install: src comes first
on sys.path, and first on PYTHONPATH for the CLI subprocesses that
some tests start.

Derandomized hypothesis tests draw the same data whatever the literals
of src and tests: hypothesis (6.155) otherwise mixes the constants of
every loaded local module into its draws, so editing any literal would
re-draw every such test.  Where hypothesis has that hook, no module
counts as local.
"""

import os
import signal
import sys
import threading
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

try:
    from hypothesis.internal.conjecture import providers
except ImportError:  # hypothesis is optional
    providers = None
if hasattr(providers, "is_local_module_file"):
    providers.is_local_module_file = lambda path: False

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path[:] = [SRC] + [p for p in sys.path if p != SRC]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p and p != SRC])

TEST_BUDGET_S = 120.0
TEST_MEMORY_BYTES = 2 << 30


class OverBudget(BaseException):
    """A test ran past its time budget.  Not an Exception, so no
    report-and-continue handler in the code under test swallows it."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_budget(seconds): wall-time budget of the test")


@pytest.fixture(autouse=True)
def time_budget(request):
    marker = request.node.get_closest_marker("time_budget")
    seconds = marker.args[0] if marker else TEST_BUDGET_S
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expire(signum, frame):
        raise OverBudget(f"the test ran past its budget of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def memory_budget():
    if resource is None:
        yield
        return
    previous = resource.getrlimit(resource.RLIMIT_AS)
    soft = min(limit for limit in (*previous, TEST_MEMORY_BYTES)
               if limit != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (soft, previous[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, previous)
