import pytest

from imbalattice import (
    contraction,
    leq_by_definition,
    lower_expansion,
    run_checks,
    upper_expansion,
)


@pytest.fixture
def holds():
    """Assert that the named ``imbalattice.verify`` laws pass for n <= max_n;
    a failure message carries the report with its witness."""

    def check(max_n, *names):
        for report in run_checks(max_n, names):
            assert report.passed, str(report)

    return check


def _meet_by_scanning(s, t):
    """The contraction recursion as the paper states it: at each level keep
    the upper expansion of the contractions' meet when the definition-level
    order puts it below both arguments, else take the lower expansion."""
    chain = [(s, t)]
    while len(chain[-1][0]) > 1:
        a, b = chain[-1]
        chain.append((contraction(a), contraction(b)))
    low = chain.pop()[0]
    for a, b in reversed(chain):
        up = upper_expansion(low)
        if leq_by_definition(up, a) and leq_by_definition(up, b):
            low = up
        else:
            low = lower_expansion(low)
    return low


@pytest.fixture(scope="session")
def meet_by_scanning():
    """Reference meet that scans the order at every level (session-scoped,
    so Hypothesis tests may use it)."""
    return _meet_by_scanning
