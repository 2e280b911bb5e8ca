"""Shared test configuration: acceptance criterion summary lines, and the
environment of tests that run curvzoo in a child interpreter.

Acceptance tests are named test_criterion_<N>_<slug>; after the run, one
pass/fail line per criterion is printed, aggregating all of its sub-tests.
"""

import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_CRITERION = re.compile(r"test_criterion_(\d+)")
_results: dict[int, list] = {}


@pytest.fixture
def src_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, for a child
    interpreter that imports curvzoo as a user would from a checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    _results.setdefault(number, []).append(
        (report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_results):
        entries = _results[number]
        passed = sum(1 for _, ok in entries if ok)
        total = len(entries)
        if passed == total:
            terminalreporter.write_line(
                f"criterion {number}: PASS ({total} checks)")
        else:
            failed = [name for name, ok in entries if not ok]
            terminalreporter.write_line(
                f"criterion {number}: FAIL ({passed}/{total} checks; "
                f"failing: {', '.join(failed)})")
