from itertools import product

import pytest

from imbalattice import (
    PositionOutOfRange,
    SingletonSequence,
    contraction,
    enumerate_universe,
    expansion_at,
    join,
    leq,
    lower_expansion,
    meet,
    upper_expansion,
    validate,
)


def seq(*components):
    return validate(components)


class TestExpansionAt:
    def test_at_last_position(self):
        assert expansion_at(seq(1, 2, 3, 4, 4), 5) == seq(1, 2, 3, 4, 5, 5)

    def test_interior(self):
        assert expansion_at(seq(1, 2, 3, 4, 4), 3) == seq(1, 2, 4, 4, 4, 4)

    def test_position_one_of_constant_resorts(self):
        assert expansion_at(seq(2, 2, 2, 2), 1) == seq(2, 2, 2, 3, 3)

    @pytest.mark.parametrize("position", [0, 6, -1])
    def test_out_of_range(self, position):
        with pytest.raises(PositionOutOfRange):
            expansion_at(seq(1, 2, 3, 4, 4), position)

    def test_always_valid_and_one_longer(self):
        for n in range(1, 9):
            for l in enumerate_universe(n):
                for i in range(1, n + 1):
                    grown = expansion_at(l, i)  # revalidated on construction
                    assert len(grown) == n + 1


class TestUpperLowerExpansion:
    def test_upper_examples(self):
        assert upper_expansion(seq(0)) == seq(1, 1)
        assert upper_expansion(seq(1, 2, 3, 4, 4)) == seq(1, 2, 3, 4, 5, 5)
        assert upper_expansion(seq(2, 2, 2, 2)) == seq(2, 2, 2, 3, 3)

    def test_lower_examples(self):
        assert lower_expansion(seq(1, 2, 3, 4, 4)) == seq(1, 2, 4, 4, 4, 4)
        assert lower_expansion(seq(2, 2, 2, 2)) == seq(2, 2, 2, 3, 3)
        assert lower_expansion(seq(1, 3, 3, 3, 3)) == seq(2, 2, 3, 3, 3, 3)

    def test_coincide_exactly_on_constant(self, holds):
        holds(9, "expansion-coincidence")

    def test_monotone(self, holds):
        holds(9, "expansion-monotonicity")

    def test_upper_below_lower_across_depth_gap(self, holds):
        # l below h with strictly smaller last depth forces l+ below h's
        # lower expansion; worked instance first, then exhaustively.
        l, h = seq(2, 2, 3, 3, 3, 3), seq(1, 2, 3, 4, 5, 5)
        assert leq(l, h) and l.last < h.last
        assert upper_expansion(l) == seq(2, 2, 3, 3, 3, 4, 4)
        assert lower_expansion(h) == seq(1, 2, 3, 5, 5, 5, 5)
        assert leq(upper_expansion(l), lower_expansion(h))
        holds(9, "upper-lower-expansion")


class TestContraction:
    def test_short_suffix(self):
        assert contraction(seq(1, 2, 3, 4, 4)) == seq(1, 2, 3, 3)

    def test_long_suffix(self):
        assert contraction(seq(1, 3, 3, 3, 3)) == seq(1, 2, 3, 3)

    def test_seven_components(self):
        assert contraction(seq(2, 2, 3, 3, 3, 4, 4)) == seq(2, 2, 3, 3, 3, 3)

    def test_singleton(self):
        with pytest.raises(SingletonSequence):
            contraction(seq(0))

    def test_sandwich(self, holds):
        holds(10, "contraction-sandwich")

    def test_round_trip_at_merged_position(self, holds):
        # the merged component sits at position n - suf + 1 of the contraction
        holds(10, "contraction-round-trip")


# Ordered pairs (a, b) of L_n on which a size-changing map f breaks a bound:
# f(meet(a, b)) != meet(f(a), f(b)), or the same for join.  Every other
# (map, bound, n) with n <= 9 breaks on none.
BROKEN = {
    ("contraction", "meet"): {8: 6, 9: 12},
    ("lower_expansion", "join"): {9: 20},
}


class TestLatticeMaps:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_which_bounds_each_map_preserves(self, n):
        pool = enumerate_universe(n).elements
        pairs = list(product(pool, pool))
        bounds = {"meet": meet, "join": join}
        here = {name: [bound(a, b) for a, b in pairs] for name, bound in bounds.items()}
        maps = [upper_expansion, lower_expansion] + ([contraction] if n > 1 else [])
        for f in maps:
            image = {l: f(l) for l in pool}
            for name, bound in bounds.items():
                broken = sum(
                    image[m] != bound(image[a], image[b])
                    for (a, b), m in zip(pairs, here[name])
                )
                expected = BROKEN.get((f.__name__, name), {}).get(n, 0)
                assert broken == expected, (f.__name__, name)

    def test_contraction_breaks_meet_first_at_eight(self):
        a = seq(1, 3, 4, 4, 4, 4, 4, 4)
        broken = [
            b for b in enumerate_universe(8)
            if contraction(meet(a, b)) != meet(contraction(a), contraction(b))
        ]
        assert broken == [
            seq(2, 2, 2, 3, 4, 5, 6, 6), seq(2, 2, 2, 3, 5, 5, 5, 5), seq(2, 2, 2, 4, 4, 4, 5, 5)
        ]
