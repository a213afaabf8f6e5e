import hashlib
import json
import random
import tracemalloc

import pytest

from imbalattice import (
    LengthMismatch,
    NotAnExcessIndex,
    PathLengthSequence,
    ResourceLimit,
    balancing_step,
    bottom,
    count_universe,
    covering_pairs,
    enumerate_by_partition,
    enumerate_universe,
    excess_indices,
    expansion_at,
    format_sequence,
    hasse,
    hasse_dot,
    hasse_json,
    is_join_irreducible_by_balancing,
    is_join_irreducible_by_covers,
    join,
    join_bruteforce,
    leq,
    leq_by_definition,
    meet,
    minimal_balancing_relation,
    top,
    validate,
)
from imbalattice.errors import ElementNotInUniverse
import imbalattice.lattice
import imbalattice.sequences
from imbalattice.lattice import _cover_edges, _leaf_counts, _lower_covers, _unrank
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


# sha256 of the ``enumerate N`` lines and of ``hasse_json(hasse(N))`` for
# N = 1..18: the output stays fixed whatever engine builds the universe.
OUTPUT_DIGESTS = [
    (1, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "e4f1b1becfb20df246a36244fc0732f8bd93781b52ec9b0778aca424cfda9133"),
    (2, "660d27866c015bac26537ee8c3f4d4bd0822c690b976244961d61951e88520fb",
        "2d19cd22eedeb2baf4fd1051456e368b67fbf1af19d5518bed3c26cf0cf338c2"),
    (3, "efac2f91799570cc54e7d8044b465173481a29f7ac58073fe322227b922dfba3",
        "fbf127b52b4e4d70b70344ce8c665e6a05f104f6c0dae87c252bce61ace041d1"),
    (4, "249cc8074bff1b26f8f173cef9bf7e0b7878db1b1a24aa3673f6b255e1a51421",
        "b0bdb93626f875693355536dda42e353826bfd06a6300655fe8ea352aea8e5e1"),
    (5, "411e124aefbdb7cee2b02b9f467219faf61e0b9fa0cd354e3ee1b1a67d4d1463",
        "f6e15861d56031aa1b5e5ae86cb300db5d67f86ded870e9e941dc7c947acfbe2"),
    (6, "1cfc006581495bea7a0652d1b5c63a0d9098490c975b96e1b940ceafaf425f0a",
        "bedb044f3b8d1143323fc9b148c83ceda0886d42e76884f780a8aa0c101871f0"),
    (7, "a93b676fdf2d8c97bf79d8572722a14fd545bc9f3929670d4db4480f3566b0d9",
        "a057a267240f1baf243b99efde6273184b705ad1841cec5852c00dfb82f4e8a0"),
    (8, "93fa691d80fef467808f75ca898ce6b96908abf28a09d7def584042ac68b164d",
        "6b42f9ea29b55f5fa03e307a1f44e8a486be864d38ac2c543304fe02bd37ee68"),
    (9, "72d5b2bd00fdb78b408712ab1441f9e7fd8038b7ef76a4974fb88e2280ddc97a",
        "dea5241f43aa4baab304abea599eabb958f7902db2653f1714fe1cb7f4340a2d"),
    (10, "b787b876ccfe7f1c6e25bf3a7b9cc92b11497fe400d727df91535e7706093b86",
        "031222ad6ed36d691bd41c8a65ec957f8773f22b6d7b89a3aa9ada31002ac3f2"),
    (11, "f9b9d433c9dc0ea3e90434bcf3bcf48f2b2028df7605e125138c1f1c7b89cac4",
        "ed45ea004b6ed77c7f492298f32b3f38f9e547ad974929ac912e4b952dcf1976"),
    (12, "4470fc30ee21b983a5fb1e9732d8007e0edf5748a7247ae5bd3103d0d796d52a",
        "0b2445f8da8e75871f81b4cfffb10532a61f13d2725719b7c1105d6447fe25f5"),
    (13, "17a8c4195cfd20d7bf0e506db427c19a1983d45b74700245438edf2f71a96169",
        "6f1ce9ac6695aa1a2c2c98c17835d3b672418961a067ad5d01f866423667e855"),
    (14, "f1dfdb5803f7a716ccdda51814ac35d5acfca92ae545bd0ce86cea12afe2ca51",
        "7dd71e6ca850909829631d2b5073a9ceab5a210132dabf7b7eee8ead8c2ec193"),
    (15, "72da967ecd06a036493d53b99fda75b4135f1ab220ab463429ed6fea352bf39c",
        "cd82a266d18daf49c40504df55c22b505680258fadc6a42b53b4ae85fc09aba4"),
    (16, "79a8dc973b21790da608beaa0e1e4938414298925f8a21892423af66e4114818",
        "8d6d08caf68efec09a4198dbf7434daa3fa378298a2dcbe53b84473053f42064"),
    (17, "dd2f6fb807ad5983cfc035aea0484849a7d44b5559e676549760387315f8a35d",
        "c63db4f007fe5b9668894b9554841a0ee53b2dae57c5d1944d083fdc51d99cca"),
    (18, "14039791710a8459cf56dda90c93b53d52c74f5dd5fdb14901144dbafb160a44",
        "1d2d2b862b53f2b37208c90bebae0404d31ee5d9a6795bb83ab49cd7ef968b51"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def seq(*components):
    return validate(components)


def forbid_order_scans(monkeypatch, what):
    def no_scan(*args):
        raise AssertionError(f"{what} compared partial sums")

    monkeypatch.setattr(imbalattice.sequences, "_leq", no_scan)
    # A comparison imported straight into the lattice module binds its own name.
    monkeypatch.setattr(imbalattice.lattice, "_leq", no_scan, raising=False)


class TestEnumerate:
    def test_base_case(self):
        assert [el.components for el in enumerate_universe(1)] == [(0,)]

    def test_four(self):
        assert {el.components for el in enumerate_universe(4)} == {(2, 2, 2, 2), (1, 2, 3, 3)}

    def test_seven_lists_all_nine(self):
        assert [el.components for el in enumerate_universe(7)] == NINE_OF_SEVEN

    def test_membership_is_typed(self):
        universe = enumerate_universe(3)
        assert seq(1, 2, 2) in universe and universe.index(seq(1, 2, 2)) == 0
        for foreign in ((1, 2, 2), "x", None, seq(1, 1)):
            assert foreign not in universe
            with pytest.raises(ElementNotInUniverse):
                universe.index(foreign)

    def test_counts(self):
        assert [len(enumerate_universe(n)) for n in range(1, 11)] == [
            1, 1, 1, 2, 3, 5, 9, 16, 28, 50,
        ]

    def test_ceiling(self):
        with pytest.raises(ResourceLimit):
            enumerate_universe(21)
        assert len(enumerate_universe(21, ceiling=21)) > len(enumerate_universe(20))

    def test_matches_the_closure_over_every_position(self):
        for n in range(2, 19):
            grown = {
                expansion_at(l, i).components
                for l in enumerate_universe(n - 1)
                for i in range(1, n)
            }
            assert [el.components for el in enumerate_universe(n)] == sorted(grown)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_universe(0)

    @pytest.mark.parametrize(
        "n, lines, json_", OUTPUT_DIGESTS, ids=[f"n={row[0]}" for row in OUTPUT_DIGESTS]
    )
    def test_output_is_pinned(self, n, lines, json_):
        text = "".join(format_sequence(el) + "\n" for el in enumerate_universe(n))
        assert (sha256(text), sha256(hasse_json(hasse(n)))) == (lines, json_)

    def test_builds_no_expansion(self, monkeypatch):
        # One engine: the universe comes from the leaf-count table alone.
        def no_expansion(*args):
            raise AssertionError("the universe was grown by expansion")

        before = list(enumerate_universe(12))
        monkeypatch.setattr(imbalattice.lattice, "_expand", no_expansion)
        imbalattice.lattice._universe.cache_clear()
        try:
            assert list(enumerate_universe(12)) == before
        finally:
            imbalattice.lattice._universe.cache_clear()

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
        def mutable(value):
            return isinstance(value, (list, dict, set, bytearray))

        module = vars(imbalattice.lattice)
        before = {
            name: (value, value.copy() if mutable(value) else value)
            for name, value in module.items()
        }
        count_universe(1000, 1000)
        _unrank(300, 0)
        assert module.keys() == before.keys()
        for name, (value, snapshot) in before.items():
            assert module[name] is value and module[name] == snapshot, name

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
        draw = random.Random(300)
        count = count_universe(300, 300)
        pairs = [(top(300), bottom(300))] + [
            (validate(_unrank(300, draw.randrange(count))),
             validate(_unrank(300, draw.randrange(count))))
            for _ in range(5)
        ]
        forbid_order_scans(monkeypatch, "meet")
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

    def test_deep_arguments_take_linear_memory(self):
        # The two contraction chains hold about n^2 components between them;
        # meet keeps only their last components.
        s, t = top(3000), bottom(3000)
        tracemalloc.start()
        try:
            low = meet(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert low.last == min(s.last, t.last)


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

    def test_certificate_picks_out_the_bruteforce_join(self, is_join_by_certificate):
        for n in range(1, 9):
            universe = enumerate_universe(n)
            for s in universe:
                for t in universe:
                    passing = [j for j in universe if is_join_by_certificate(s, t, j)]
                    assert passing == [join_bruteforce(s, t, universe)], (s, t)

    @pytest.mark.parametrize("n", range(13, 19))
    def test_passes_the_certificate_on_sampled_pairs(self, is_join_by_certificate, n):
        draw = random.Random(n)
        count = count_universe(n)
        for _ in range(5):
            s, t = (validate(_unrank(n, draw.randrange(count))) for _ in range(2))
            assert is_join_by_certificate(s, t, join(s, t)), (s, t)

    def test_absorption(self, holds):
        holds(8, "join-absorption")

    def test_lexicographic_order_extends_the_balance_order(self):
        # If x <= y and x != y, the first differing partial sum is x's
        # smaller one, so at the first differing index x_i > y_i.
        for n in range(1, 13):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    if leq(a, b):
                        assert a.components >= b.components, (a, b)

    def test_is_the_lexicographically_largest_upper_bound(self):
        # The join lies below every upper bound, so by the test above it is
        # the largest of them lexicographically.
        for n in range(1, 10):
            pool = enumerate_universe(n).elements
            for s in pool:
                for t in pool:
                    uppers = [
                        u for u in pool
                        if leq_by_definition(s, u) and leq_by_definition(t, u)
                    ]
                    assert join(s, t).components == max(u.components for u in uppers)


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

    def test_in_source_then_excess_index_order(self):
        for n in range(1, 13):
            keys = [(s.source.components, s.excess_index) for s in minimal_balancing_relation(n)]
            assert keys == sorted(set(keys)), n

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

    def test_matches_the_filter_over_step_targets(self, lower_covers_by_filter):
        for n in range(1, 15):
            for l in enumerate_universe(n):
                assert _lower_covers(l.components) == [
                    low.components for low in lower_covers_by_filter(l)
                ], l

    def test_compares_no_order(self, monkeypatch):
        draw = random.Random(500)
        count = count_universe(500, 500)
        pool = [top(500)] + [validate(_unrank(500, draw.randrange(count))) for _ in range(3)]
        forbid_order_scans(monkeypatch, "lower covers")
        covers = [_lower_covers(l.components) for l in pool]
        monkeypatch.undo()
        for l, lows in zip(pool, covers):
            assert lows
            assert all(
                low != l.components and leq_by_definition(validate(low), l) for low in lows
            )

    def test_builds_no_sequence(self, monkeypatch):
        universe = enumerate_universe(12)

        def no_build(self):
            raise AssertionError("a cover was built as a sequence")

        monkeypatch.setattr(PathLengthSequence, "__post_init__", no_build)
        edges = _cover_edges(12)
        by_covers = [is_join_irreducible_by_covers(l) for l in universe]
        monkeypatch.undo()
        assert edges == hasse(12).cover_edges
        assert by_covers == [is_join_irreducible_by_balancing(l) for l in universe]

    def test_cover_edges_match_the_definition(self, holds):
        # Covers come from balancing steps; the oracle reduces the
        # definition-level order over its own enumeration.
        holds(13, "covering-within-balancing")

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
