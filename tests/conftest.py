"""A wall-time budget for every test.

A test that runs past its budget fails with OverBudget instead of
hanging the suite.  The budget is TEST_BUDGET_S seconds, far above the
slowest test (about 4 s); a test can set its own with
@pytest.mark.time_budget(seconds).  SIGALRM from signal.setitimer keeps
it, so it holds where setitimer exists and interrupts the main thread
only.
"""

import signal
import threading

import pytest

TEST_BUDGET_S = 120.0


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
