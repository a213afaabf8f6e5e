import ast
import json
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from imbalattice import (
    LatticeUniverse,
    NotALattice,
    ResourceLimit,
    bottom,
    closure_equals_order,
    covering_pairs_by_definition,
    enumerate_by_partition,
    enumerate_universe,
    join_bruteforce,
    leq,
    leq_by_definition,
    meet_bruteforce,
    minimal_balancing_relation,
    validate,
)
from imbalattice.errors import ElementNotInUniverse
import imbalattice.oracle
from imbalattice.oracle import PropertyReport, _scaled_sums


def seq(*components):
    return validate(components)


class TestIndependence:
    def test_imports_only_the_shared_vocabulary(self):
        # The oracle's agreement with the fast paths is evidence only while
        # it borrows none of their algorithms: just values, errors, the
        # size guard and the relation it checks.
        tree = ast.parse(Path(imbalattice.oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("imbalattice")
            ):
                module = (node.module or "").removeprefix("imbalattice.")
                imported |= {(module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {
                    (alias.name, None) for alias in node.names
                    if alias.name.startswith("imbalattice")
                }
        assert imported == {
            ("_value", "Value"),
            ("errors", "NotALattice"),
            ("lattice", "DEFAULT_CEILING"),
            ("lattice", "LatticeUniverse"),
            ("lattice", "_check_size"),
            ("lattice", "minimal_balancing_relation"),
            ("sequences", "PathLengthSequence"),
        }


class TestEnumerateByPartition:
    def test_three(self):
        assert [l.components for l in enumerate_by_partition(3)] == [(1, 2, 2)]

    def test_five(self):
        assert {l.components for l in enumerate_by_partition(5)} == {
            (2, 2, 2, 3, 3),
            (1, 3, 3, 3, 3),
            (1, 2, 3, 4, 4),
        }

    def test_count_at_ten(self):
        assert len(enumerate_by_partition(10)) == 50

    def test_matches_the_fast_enumeration(self, holds):
        holds(12, "enumeration-oracle")

    def test_ceiling(self):
        with pytest.raises(ResourceLimit):
            enumerate_by_partition(25)


class TestDefinitionOrder:
    def test_agrees_with_fast_path(self):
        for n in range(1, 9):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    assert leq_by_definition(a, b) == leq(a, b)

    def test_matches_rational_partial_sums(self):
        for n in range(1, 10):
            pool = enumerate_universe(n).elements
            sums = {l: list(accumulate(Fraction(1, 2**d) for d in l.components)) for l in pool}
            for a in pool:
                for b in pool:
                    expected = all(x <= y for x, y in zip(sums[a], sums[b]))
                    assert leq_by_definition(a, b) == expected

    def test_different_lengths_never_related(self):
        assert not leq_by_definition(seq(0), seq(1, 1))

    def test_partial_sums_cache_is_bounded(self):
        bound = _scaled_sums.cache_info().maxsize
        assert bound >= sum(len(enumerate_universe(n)) for n in range(1, 17))
        pool = [*enumerate_universe(16), *enumerate_universe(17)]
        assert len(pool) > bound
        for l in pool:
            assert leq_by_definition(l, l)
        assert _scaled_sums.cache_info().currsize <= bound


class TestBruteforceBounds:
    def test_meet_bottom_is_neutral(self):
        universe = enumerate_universe(8)
        for l in universe:
            assert meet_bruteforce(bottom(8), l, universe) == bottom(8)

    def test_join_worked_pair(self):
        universe = enumerate_universe(7)
        got = join_bruteforce(seq(2, 2, 2, 3, 4, 5, 5), seq(1, 3, 3, 4, 4, 4, 4), universe)
        assert got == seq(1, 3, 3, 3, 4, 5, 5)

    def test_never_not_a_lattice_and_agrees(self, holds):
        holds(7, "lattice-bounds-unique", "meet-oracle-agreement")

    def test_membership_required(self):
        with pytest.raises(ElementNotInUniverse):
            meet_bruteforce(seq(0), seq(0), enumerate_universe(2))

    def test_not_a_lattice_error_carries_evidence(self):
        error = NotALattice("boom", pair=(seq(0), seq(0)), bounds=(seq(0),))
        assert error.pair == (seq(0), seq(0))
        assert error.bounds == (seq(0),)

    def test_incomparable_pair_alone_has_no_bounds(self):
        # A universe of two incomparable elements: neither pair member lies
        # below or above both, so the scans find no common bound at all.
        s = seq(2, 2, 2, 3, 4, 5, 5)
        t = seq(1, 3, 3, 4, 4, 4, 4)
        universe = LatticeUniverse(7, (s, t))
        for scan, side, end in [
            (meet_bruteforce, "lower", "maximum"),
            (join_bruteforce, "upper", "minimum"),
        ]:
            with pytest.raises(NotALattice) as caught:
                scan(s, t, universe)
            assert str(caught.value) == (
                f"{side} bounds of 2,2,2,3,4,5,5 and 1,3,3,4,4,4,4 have no unique {end}"
            )
            assert caught.value.pair == (s, t)
            assert caught.value.bounds == ()


def refuses_21(check):
    # No ceiling can be passed, so the refusal offers none.
    with pytest.raises(ResourceLimit) as caught:
        check(21)
    assert str(caught.value) == "n=21 exceeds the enumeration ceiling 20"


class TestCoversByDefinition:
    def test_ceiling(self):
        refuses_21(covering_pairs_by_definition)


# The witness closure_equals_order gives when the balancing relation lacks
# its first, middle or last step, as the set-squaring closure gave it.
WITHOUT_ONE_STEP = {
    (6, 0): "1,2,4,4,4,4 vs 1,2,3,4,5,5; 1,3,3,3,4,4 vs 1,2,3,4,5,5; "
            "2,2,2,3,4,4 vs 1,2,3,4,5,5; 2,2,3,3,3,3 vs 1,2,3,4,5,5",
    (6, 2): "2,2,2,3,4,4 vs 1,2,3,4,5,5; 2,2,2,3,4,4 vs 1,2,4,4,4,4; "
            "2,2,2,3,4,4 vs 1,3,3,3,4,4",
    (6, 4): "2,2,3,3,3,3 vs 2,2,2,3,4,4",
    (8, 0): "1,2,3,4,6,6,6,6 vs 1,2,3,4,5,6,7,7; 1,2,3,5,5,5,6,6 vs 1,2,3,4,5,6,7,7; "
            "1,2,4,4,4,5,6,6 vs 1,2,3,4,5,6,7,7; 1,2,4,4,5,5,5,5 vs 1,2,3,4,5,6,7,7; "
            "1,3,3,3,4,5,6,6 vs 1,2,3,4,5,6,7,7",
    (8, 11): "1,3,3,4,4,4,5,5 vs 1,3,3,3,4,5,6,6; 1,3,3,4,4,4,5,5 vs 1,3,3,3,5,5,5,5; "
             "1,3,4,4,4,4,4,4 vs 1,3,3,3,4,5,6,6; 1,3,4,4,4,4,4,4 vs 1,3,3,3,5,5,5,5",
    (8, 22): "3,3,3,3,3,3,3,3 vs 1,2,3,4,5,6,7,7; 3,3,3,3,3,3,3,3 vs 1,2,3,4,6,6,6,6; "
             "3,3,3,3,3,3,3,3 vs 1,2,3,5,5,5,6,6; 3,3,3,3,3,3,3,3 vs 1,2,4,4,4,5,6,6; "
             "3,3,3,3,3,3,3,3 vs 1,2,4,4,5,5,5,5",
}


class TestClosureReport:
    def test_ceiling(self):
        refuses_21(closure_equals_order)

    @pytest.mark.parametrize("n", [5, 7, 8, 10, 11])
    def test_closure_equals_order(self, n):
        report = closure_equals_order(n)
        assert report.passed
        assert report.witness is None

    @pytest.mark.parametrize("n, dropped", sorted(WITHOUT_ONE_STEP))
    def test_witness_of_a_missing_step(self, monkeypatch, n, dropped):
        steps = minimal_balancing_relation(n)
        assert dropped in (0, len(steps) // 2, len(steps) - 1)
        kept = steps[:dropped] + steps[dropped + 1:]
        monkeypatch.setattr(imbalattice.oracle, "minimal_balancing_relation", lambda n: kept)
        assert closure_equals_order(n) == PropertyReport(
            "closure-equals-order", n, "fail", WITHOUT_ONE_STEP[n, dropped]
        )

    def test_report_json(self):
        report = PropertyReport("closure-equals-order", 5, "pass")
        assert json.loads(report.to_json()) == {
            "property": "closure-equals-order",
            "n": 5,
            "status": "pass",
            "witness": None,
        }

    def test_report_text(self):
        assert str(PropertyReport("x", 3, "pass")) == "pass x (n=3)"
        assert str(PropertyReport("x", 3, "fail", "because")) == "fail x (n=3) -- because"
