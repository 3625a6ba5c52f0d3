"""Suite-wide guard: no test may leave this process's collector frozen.

Only the program's entry point, ``pnrchan.cli.main()`` reading ``sys.argv``,
moves the heap to the collector's permanent generation.  A test that called
it in process would freeze the suite's whole heap for every test after it,
so the freeze count is read after every test, and the run fails at its end
naming the first test after which it was not zero.
"""

import gc

import pytest

_FROZEN_AFTER = []


def pytest_runtest_logfinish(nodeid, location):
    if gc.get_freeze_count() and not _FROZEN_AFTER:
        _FROZEN_AFTER.append(nodeid)


def pytest_sessionfinish(session, exitstatus):
    if _FROZEN_AFTER:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _FROZEN_AFTER:
        terminalreporter.write_line(
            f"FAILED: the collector was frozen ({gc.get_freeze_count()} objects) "
            f"after {_FROZEN_AFTER[0]}; call pnrchan.cli.main with an argv list in "
            "process", red=True)
