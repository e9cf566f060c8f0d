"""The environment line of the test run: a line of the header, and of a
failed run's summary, even under -q."""

import platform

import numpy as np
import pytest

import conftest


class StubReporter:
    def __init__(self):
        self.lines = []

    def write_line(self, line, **markup):
        self.lines.append(line)


def test_environment_line_names_python_numpy_and_blas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    line = conftest.environment_line()
    assert line == (f"python {platform.python_version()}, numpy {np.__version__}, "
                    f"blas {blas['name']} {blas['version']}")
    assert conftest.pytest_report_header(config=None) == line


@pytest.mark.parametrize("status,printed", [
    (pytest.ExitCode.OK, False), (pytest.ExitCode.TESTS_FAILED, True),
    (pytest.ExitCode.INTERRUPTED, True)])
def test_a_failed_run_prints_the_environment_line(status, printed):
    reporter = StubReporter()
    conftest.pytest_terminal_summary(reporter, status, config=None)
    assert reporter.lines == ([conftest.environment_line()] if printed else [])
