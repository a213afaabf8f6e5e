import pytest

from imbalattice import (
    balancing_step,
    bottom,
    decompose_segments,
    enumerate_universe,
    excess_indices,
    is_join_irreducible_by_balancing,
    is_join_irreducible_by_covers,
    is_join_irreducible_by_decomposition,
    is_near_constant,
    leq,
    validate,
)
from imbalattice.errors import ElementNotInUniverse


def seq(*components):
    return validate(components)


class TestNearConstancy:
    @pytest.mark.parametrize(
        "segment, expected",
        [
            ((3, 3, 3), True),
            ((2, 2, 3, 3, 3), True),
            ((1, 2, 3), False),
            ((2, 4), False),
            ((), True),
            ((5,), True),
        ],
    )
    def test_examples(self, segment, expected):
        verdict = is_near_constant(segment)
        assert bool(verdict) is expected

    def test_values_field(self):
        assert is_near_constant((2, 2, 3, 3, 3)).values == (2, 3)
        assert is_near_constant((1, 2, 3)).values == (1, 2, 3)


class TestDecomposition:
    def test_caterpillar_five(self):
        split = decompose_segments(seq(1, 2, 3, 4, 4))
        assert (split.head, split.middle, split.tail) == ((1, 2), (), (3, 4, 4))
        assert split.satisfies_all()

    def test_diamond_top_fails_middle(self):
        split = decompose_segments(seq(1, 3, 3, 3, 4, 5, 5))
        assert (split.head, split.middle, split.tail) == ((1,), (3, 3, 3), (4, 5, 5))
        assert not split.middle_strictly_increasing
        assert not split.satisfies_all()

    def test_long_head(self):
        split = decompose_segments(seq(2, 2, 3, 3, 3, 4, 4))
        assert (split.head, split.middle, split.tail) == ((2, 2, 3, 3, 3), (), (4, 4))
        assert split.satisfies_all()

    def test_tail_run_boundary_binding(self):
        # the repeated tail opening 4,4 sits exactly two below last(head+middle)
        split = decompose_segments(seq(1, 2, 4, 4, 4, 5, 5))
        assert (split.head, split.middle, split.tail) == ((1, 2), (), (4, 4, 4, 5, 5))
        assert split.tail_run_deep_enough
        assert split.satisfies_all()

    def test_tail_run_boundary_from_depth_one(self):
        split = decompose_segments(seq(1, 3, 3, 4, 4, 4, 4))
        assert (split.head, split.middle, split.tail) == ((1,), (), (3, 3, 4, 4, 4, 4))
        assert split.satisfies_all()

    def test_concatenation_identity(self, holds):
        holds(9, "irreducibility-triple-agreement")


class TestCoverCounting:
    def test_unique_lower_cover(self):
        universe = enumerate_universe(7)
        assert is_join_irreducible_by_covers(seq(2, 2, 2, 4, 4, 4, 4), universe)

    def test_two_lower_covers(self):
        universe = enumerate_universe(7)
        assert not is_join_irreducible_by_covers(seq(1, 3, 3, 3, 4, 5, 5), universe)

    def test_bottom_covers_nothing(self):
        universe = enumerate_universe(7)
        assert not is_join_irreducible_by_covers(bottom(7), universe)

    def test_foreign_element(self):
        with pytest.raises(ElementNotInUniverse):
            is_join_irreducible_by_covers(seq(1, 1), enumerate_universe(7))


class TestBalancingCriterion:
    def test_two_incomparable_steps(self):
        l = seq(1, 3, 3, 3, 4, 5, 5)
        first, second = balancing_step(l, 2), balancing_step(l, 6)
        assert first == seq(2, 2, 2, 3, 4, 5, 5)
        assert second == seq(1, 3, 3, 4, 4, 4, 4)
        assert not leq(first, second) and not leq(second, first)
        assert not is_join_irreducible_by_balancing(l)

    def test_single_excess_index(self):
        assert is_join_irreducible_by_balancing(seq(1, 2, 3, 4, 4))

    def test_bottom_guard(self):
        assert not is_join_irreducible_by_balancing(seq(2, 2, 3, 3, 3, 3))


class TestDecompositionCriterion:
    def test_positive_examples(self):
        assert is_join_irreducible_by_decomposition(seq(1, 2, 4, 4, 4, 5, 5))
        assert is_join_irreducible_by_decomposition(seq(1, 3, 3, 4, 4, 4, 4))

    def test_negative_examples(self):
        assert not is_join_irreducible_by_decomposition(seq(1, 3, 3, 3, 4, 5, 5))
        assert not is_join_irreducible_by_decomposition(bottom(8))


class TestAgreement:
    def test_triple_agreement(self, holds):
        holds(14, "irreducibility-triple-agreement")

    def test_seven_universe_exceptions(self):
        universe = enumerate_universe(7)
        reducible = {
            l.components for l in universe if not is_join_irreducible_by_balancing(l)
        }
        assert reducible == {(2, 3, 3, 3, 3, 3, 3), (1, 3, 3, 3, 4, 5, 5)}

    def test_unique_lower_cover_is_first_balancing_step(self):
        for n in range(2, 10):
            universe = enumerate_universe(n)
            for l in universe:
                if not is_join_irreducible_by_covers(l, universe):
                    continue
                lowers = [u for u in universe if u != l and leq(u, l)]
                covers = [u for u in lowers if not any(v != u and leq(u, v) for v in lowers)]
                assert covers == [balancing_step(l, excess_indices(l)[0])]
