import pytest

from imbalattice import (
    balancing_step,
    contraction,
    excess_indices,
    leq_by_definition,
    lower_expansion,
    run_checks,
    upper_expansion,
    validate,
)
from imbalattice.lattice import _lower_covers


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


def _lower_covers_by_filter(l):
    """The lower covers as the maximal targets of ``l``'s balancing steps:
    every target that no other target lies strictly above by the
    definition-level order, in excess-index order."""
    targets = [balancing_step(l, j) for j in excess_indices(l)]
    return [
        t for t in targets
        if not any(t != v and leq_by_definition(t, v) for v in targets)
    ]


@pytest.fixture(scope="session")
def lower_covers_by_filter():
    """Reference lower covers that scan the order over all step targets
    (session-scoped, so Hypothesis tests may use it)."""
    return _lower_covers_by_filter


def _is_join_by_certificate(s, t, j):
    """Whether ``j`` is the join of ``s`` and ``t``, from ``j``'s lower covers
    alone: both lie below ``j`` by the definition-level order, and no lower
    cover of ``j`` lies above both.  A smaller common upper bound would lie
    below some lower cover of ``j``, and that cover above both."""
    return (
        leq_by_definition(s, j)
        and leq_by_definition(t, j)
        and not any(
            leq_by_definition(s, c) and leq_by_definition(t, c)
            for c in map(validate, _lower_covers(j.components))
        )
    )


@pytest.fixture(scope="session")
def is_join_by_certificate():
    """Per-answer join check that needs no universe (session-scoped, so
    Hypothesis tests may use it)."""
    return _is_join_by_certificate
