import pytest

from imbalattice import run_checks


@pytest.fixture
def holds():
    """Assert that the named ``imbalattice.verify`` laws pass for n <= max_n;
    a failure message carries the report with its witness."""

    def check(max_n, *names):
        for report in run_checks(max_n, names):
            assert report.passed, str(report)

    return check
