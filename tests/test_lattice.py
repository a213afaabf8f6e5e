import json
import random

import pytest

from imbalattice import (
    LengthMismatch,
    NotAnExcessIndex,
    ResourceLimit,
    balancing_step,
    bottom,
    count_universe,
    covering_pairs,
    enumerate_by_partition,
    enumerate_universe,
    excess_indices,
    expansion_at,
    hasse,
    hasse_dot,
    hasse_json,
    join,
    leq,
    leq_by_definition,
    meet,
    minimal_balancing_relation,
    top,
    validate,
)
from imbalattice.errors import ElementNotInUniverse
import imbalattice.lattice
from imbalattice.lattice import _leaf_counts, _unrank
import imbalattice.verify
from imbalattice.verify import run_checks

NINE_OF_SEVEN = [
    (1, 2, 3, 4, 5, 6, 6),
    (1, 2, 3, 5, 5, 5, 5),
    (1, 2, 4, 4, 4, 5, 5),
    (1, 3, 3, 3, 4, 5, 5),
    (1, 3, 3, 4, 4, 4, 4),
    (2, 2, 2, 3, 4, 5, 5),
    (2, 2, 2, 4, 4, 4, 4),
    (2, 2, 3, 3, 3, 4, 4),
    (2, 3, 3, 3, 3, 3, 3),
]


def seq(*components):
    return validate(components)


class TestEnumerate:
    def test_base_case(self):
        assert [el.components for el in enumerate_universe(1)] == [(0,)]

    def test_four(self):
        assert {el.components for el in enumerate_universe(4)} == {(2, 2, 2, 2), (1, 2, 3, 3)}

    def test_seven_lists_all_nine(self):
        assert [el.components for el in enumerate_universe(7)] == NINE_OF_SEVEN

    def test_counts(self):
        assert [len(enumerate_universe(n)) for n in range(1, 11)] == [
            1, 1, 1, 2, 3, 5, 9, 16, 28, 50,
        ]

    def test_ceiling(self):
        with pytest.raises(ResourceLimit):
            enumerate_universe(21)
        assert len(enumerate_universe(21, ceiling=21)) > len(enumerate_universe(20))

    def test_matches_the_closure_over_every_position(self):
        for n in range(2, 15):
            grown = {
                expansion_at(l, i).components
                for l in enumerate_universe(n - 1)
                for i in range(1, n)
            }
            assert [el.components for el in enumerate_universe(n)] == sorted(grown)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_universe(0)

    def test_universe_lookup(self):
        universe = enumerate_universe(7)
        assert seq(2, 2, 2, 4, 4, 4, 4) in universe
        assert universe.index(seq(2, 3, 3, 3, 3, 3, 3)) == 8
        with pytest.raises(ElementNotInUniverse):
            universe.index(seq(1, 1))


class TestCount:
    def test_matches_enumeration(self):
        assert [count_universe(n, 21) for n in range(1, 22)] == [
            len(enumerate_universe(n, 21)) for n in range(1, 22)
        ]

    def test_matches_the_partition_oracle(self):
        assert [count_universe(n) for n in range(1, 17)] == [
            len(enumerate_by_partition(n)) for n in range(1, 17)
        ]

    def test_matches_the_unranking_table(self):
        rows = _leaf_counts(60)
        assert [count_universe(k, 60) for k in range(1, 61)] == [
            rows[k][1] for k in range(1, 61)
        ]

    def test_keeps_no_table(self):
        kept = len(imbalattice.lattice._leaf_rows)
        count_universe(1000, 1000)
        assert len(imbalattice.lattice._leaf_rows) == kept

    def test_table_sums_over_the_leaves_at_each_depth(self):
        # f(k, m) = [k == m] + sum(f(k - j, 2(m - j)) for j < m): j of the m
        # open nodes are leaves, the other m - j split.
        rows = _leaf_counts(60)

        def f(k, m):
            return rows[k][m] if m <= k else 0

        assert rows[0] == (1,)
        for k in range(1, 61):
            for m in range(k + 1):
                assert f(k, m) == (k == m) + sum(f(k - j, 2 * (m - j)) for j in range(m))

    def test_keeps_the_ceiling(self):
        with pytest.raises(ResourceLimit):
            count_universe(21)
        with pytest.raises(ValueError):
            count_universe(0)

    def test_unrank_is_the_enumeration_order(self):
        for n in range(1, 15):
            order = [el.components for el in enumerate_universe(n)]
            assert [_unrank(n, r) for r in range(count_universe(n))] == order

    @pytest.mark.parametrize("n", [64, 257, 300])
    def test_unrank_far_beyond_the_ceiling(self, n):
        count = count_universe(n, n)
        assert _unrank(n, 0) == top(n).components
        assert _unrank(n, count - 1) == bottom(n).components
        draw = random.Random(n)
        for _ in range(20):
            r = draw.randrange(count - 1)
            low, high = _unrank(n, r), _unrank(n, r + 1)
            assert validate(low).components == low and validate(high).components == high
            assert low < high

    def test_unrank_rejects_ranks_outside_the_universe(self):
        for r in (-1, count_universe(7)):
            with pytest.raises(ValueError):
                _unrank(7, r)


class TestMeet:
    def test_idempotent(self):
        l = seq(1, 2, 3, 4, 4)
        assert meet(l, l) == l

    def test_comparable_pair(self):
        assert meet(seq(1, 3, 3, 3, 3), seq(1, 2, 3, 4, 4)) == seq(1, 3, 3, 3, 3)

    def test_incomparable_pair(self):
        assert meet(seq(2, 2, 2, 3, 4, 5, 5), seq(1, 3, 3, 4, 4, 4, 4)) == seq(
            2, 2, 2, 4, 4, 4, 4
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            meet(seq(0), seq(1, 1))

    def test_last_law(self, holds):
        holds(9, "meet-last-law")

    def test_semilattice_laws(self, holds):
        holds(10, "meet-semilattice-laws")

    # Each planted meet answers one pair with a common lower bound strictly
    # below the true meet, so only the triple laws can notice.
    @pytest.mark.parametrize(
        "x, y, wrong, witness",
        [
            ((1, 2, 3, 4, 4), (1, 3, 3, 3, 3), (2, 2, 2, 3, 3),
             "not greatest: 1,2,3,4,4, 1,3,3,3,3, 1,3,3,3,3"),
            ((1, 2, 3, 4, 5, 5), (1, 3, 3, 3, 4, 4), (2, 2, 2, 3, 4, 4),
             "not associative: 1,2,3,4,5,5, 1,2,4,4,4,4, 1,3,3,3,4,4"),
        ],
        ids=["greatest", "associative"],
    )
    def test_semilattice_laws_catch_a_planted_meet(self, monkeypatch, x, y, wrong, witness):
        x, y, wrong = validate(x), validate(y), validate(wrong)
        assert leq(wrong, meet(x, y)) and wrong != meet(x, y)
        monkeypatch.setattr(
            imbalattice.verify, "meet", lambda s, t: wrong if {s, t} == {x, y} else meet(s, t)
        )
        (report,) = run_checks(6, ["meet-semilattice-laws"])
        assert (report.status, report.witness) == ("fail", witness)

    def test_matches_the_scanning_recursion(self, meet_by_scanning):
        for n in range(1, 11):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    assert meet(a, b) == meet_by_scanning(a, b), (a, b)

    def test_scans_no_order(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("meet compared partial sums")

        draw = random.Random(300)
        count = count_universe(300, 300)
        pairs = [(top(300), bottom(300))] + [
            (validate(_unrank(300, draw.randrange(count))),
             validate(_unrank(300, draw.randrange(count))))
            for _ in range(5)
        ]
        monkeypatch.setattr(imbalattice.lattice, "_leq", no_scan)
        lows = [meet(s, t) for s, t in pairs]
        monkeypatch.undo()
        for (s, t), low in zip(pairs, lows):
            assert low.last == min(s.last, t.last)
            assert leq_by_definition(low, s) and leq_by_definition(low, t)

    def test_deep_arguments_need_no_recursion(self):
        s, t = top(2000), bottom(2000)
        low = meet(s, t)
        assert low.last == min(s.last, t.last)
        assert leq_by_definition(low, s) and leq_by_definition(low, t)


class TestJoin:
    def test_idempotent(self):
        l = seq(1, 2, 3, 4, 4)
        assert join(l, l) == l

    def test_bottom_is_neutral(self):
        for n in range(1, 9):
            for l in enumerate_universe(n):
                assert join(bottom(n), l) == l

    def test_incomparable_pair(self):
        assert join(seq(2, 2, 2, 3, 4, 5, 5), seq(1, 3, 3, 4, 4, 4, 4)) == seq(
            1, 3, 3, 3, 4, 5, 5
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            join(seq(0), seq(1, 1))

    def test_matches_the_bruteforce_join(self, holds):
        holds(8, "meet-oracle-agreement")

    def test_absorption(self, holds):
        holds(8, "join-absorption")


class TestExcessIndices:
    def test_examples(self):
        assert excess_indices(seq(1, 2, 3, 4, 4)) == (4,)
        assert excess_indices(seq(2, 2, 3, 3, 3, 3)) == ()
        assert excess_indices(seq(1, 3, 3, 3, 4, 5, 5)) == (2, 6)

    def test_empty_iff_bottom_iff_near_constant(self):
        for n in range(1, 10):
            for l in enumerate_universe(n):
                flat = len(set(l.components)) <= 1 or (
                    len(set(l.components)) == 2
                    and max(l.components) - min(l.components) == 1
                )
                assert (excess_indices(l) == ()) == flat == (l == bottom(n))


class TestBalancingStep:
    def test_examples(self):
        assert balancing_step(seq(1, 2, 3, 4, 4), 4) == seq(1, 3, 3, 3, 3)
        assert balancing_step(seq(1, 3, 3, 3, 4, 5, 5), 2) == seq(2, 2, 2, 3, 4, 5, 5)
        assert balancing_step(seq(1, 3, 3, 3, 4, 5, 5), 6) == seq(1, 3, 3, 4, 4, 4, 4)

    def test_rejects_non_excess_index(self):
        with pytest.raises(NotAnExcessIndex):
            balancing_step(seq(1, 2, 3, 4, 4), 2)

    def test_rejects_exactly_the_non_excess_indices(self):
        for n in range(1, 11):
            for l in enumerate_universe(n):
                excess = excess_indices(l)
                for j in range(-1, n + 2):
                    if j in excess:
                        assert len(balancing_step(l, j)) == n
                    else:
                        with pytest.raises(NotAnExcessIndex):
                            balancing_step(l, j)

    def test_rejects_a_non_integer_index(self):
        l = seq(1, 2, 3, 4, 4)
        for j in (4.0, "4", None):
            with pytest.raises(NotAnExcessIndex):
                balancing_step(l, j)

    def test_strict_descent_by_exact_amount(self, holds):
        holds(9, "balancing-step-decrement")


class TestMinimalBalancingRelation:
    def test_five(self):
        steps = minimal_balancing_relation(5)
        as_tuples = {(s.target.components, s.source.components, s.excess_index) for s in steps}
        assert as_tuples == {
            ((1, 3, 3, 3, 3), (1, 2, 3, 4, 4), 4),
            ((2, 2, 2, 3, 3), (1, 3, 3, 3, 3), 2),
        }

    def test_trivial_universes(self):
        for n in (1, 2, 3):
            assert minimal_balancing_relation(n) == ()

    def test_contains_non_cover_step_at_seven(self):
        steps = {(s.target.components, s.source.components) for s in minimal_balancing_relation(7)}
        witness = ((1, 3, 3, 4, 4, 4, 4), (1, 2, 4, 4, 4, 5, 5))
        assert witness in steps
        cover_set = {(a.components, b.components) for a, b in covering_pairs(7)}
        assert witness not in cover_set
        between = seq(1, 3, 3, 3, 4, 5, 5)
        assert leq(seq(*witness[0]), between) and leq(between, seq(*witness[1]))


class TestCovering:
    def test_five_is_a_chain(self):
        assert [(a.components, b.components) for a, b in covering_pairs(5)] == [
            ((1, 3, 3, 3, 3), (1, 2, 3, 4, 4)),
            ((2, 2, 2, 3, 3), (1, 3, 3, 3, 3)),
        ]

    def test_six_is_a_five_chain(self):
        assert len(enumerate_universe(6)) == 5
        assert len(covering_pairs(6)) == 4

    def test_seven_chain_diamond_chain(self):
        universe = hasse(7)
        assert len(universe.cover_edges) == 9
        lower_cover_counts = {el: 0 for el in universe.elements}
        for a, b in universe.cover_edges:
            lower_cover_counts[universe.elements[b]] += 1
        doubled = [el for el, c in lower_cover_counts.items() if c == 2]
        assert [el.components for el in doubled] == [(1, 3, 3, 3, 4, 5, 5)]

    def test_cover_edges_match_the_definition(self, holds):
        # Covers come from balancing steps; the oracle reduces the
        # definition-level order over its own enumeration.
        holds(12, "covering-within-balancing")

    def test_chain_below_seven_and_first_incomparable_pair(self):
        for n in range(1, 7):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    assert leq(a, b) or leq(b, a)
        pool = enumerate_universe(7).elements
        incomparable = {
            tuple(sorted((a.components, b.components)))
            for a in pool
            for b in pool
            if not leq(a, b) and not leq(b, a)
        }
        assert incomparable == {((1, 3, 3, 4, 4, 4, 4), (2, 2, 2, 3, 4, 5, 5))}


class TestBottomTop:
    def test_examples(self):
        assert bottom(5) == seq(2, 2, 2, 3, 3)
        assert top(5) == seq(1, 2, 3, 4, 4)
        assert bottom(1) == top(1) == seq(0)
        assert bottom(7) == seq(2, 3, 3, 3, 3, 3, 3)

    def test_match_enumerated_extremes(self, holds):
        holds(10, "bottom-top-extremes")


class TestHasseExports:
    def test_json_five(self):
        assert hasse_json(hasse(5)) == (
            '{"n": 5, "nodes": [[1, 2, 3, 4, 4], [1, 3, 3, 3, 3], '
            '[2, 2, 2, 3, 3]], "covers": [[1, 0], [2, 1]]}'
        )

    def test_json_schema(self):
        payload = json.loads(hasse_json(hasse(7)))
        assert payload["n"] == 7
        assert payload["nodes"] == [list(c) for c in NINE_OF_SEVEN]
        for a, b in payload["covers"]:
            assert leq(seq(*payload["nodes"][a]), seq(*payload["nodes"][b]))

    def test_dot_five(self):
        assert hasse_dot(hasse(5)) == (
            "digraph imbalance_lattice_5 {\n"
            '    "1,2,3,4,4";\n'
            '    "1,3,3,3,3";\n'
            '    "2,2,2,3,3";\n'
            '    "1,2,3,4,4" -> "1,3,3,3,3";\n'
            '    "1,3,3,3,3" -> "2,2,2,3,3";\n'
            "}\n"
        )

    def test_exports_need_cover_edges(self):
        with pytest.raises(ValueError):
            hasse_json(enumerate_universe(5))
        with pytest.raises(ValueError):
            hasse_dot(enumerate_universe(5))
