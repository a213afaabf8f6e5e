import pytest

from imbalattice import (
    CodeTree,
    MalformedTree,
    canonical_code,
    enumerate_universe,
    leaf_codewords,
    leq,
    nodes_within_depth,
    sequence_from_tree,
    sum_components,
    top,
    tree_ascii,
    tree_dot,
    tree_from_sequence,
    validate,
)


def seq(*components):
    return validate(components)


def node_count_oracle(l, d):
    """Independent count: every tree node is a codeword prefix, its depth the
    prefix length, so count distinct prefixes no longer than d."""
    prefixes = set()
    for word in canonical_code(l):
        for length in range(min(len(word), d) + 1):
            prefixes.add(word[:length])
    return len(prefixes)


class TestCanonicalCode:
    @pytest.mark.parametrize(
        "components, expected",
        [
            ((1, 1), ("0", "1")),
            ((1, 2, 2), ("0", "10", "11")),
            ((1, 2, 3, 3), ("0", "10", "110", "111")),
            ((0,), ("",)),
        ],
    )
    def test_examples(self, components, expected):
        assert canonical_code(validate(components)) == expected

    def test_prefix_free_with_exact_lengths(self, holds):
        holds(10, "kraft-realization")


class TestCodeTree:
    def test_round_trip_single_leaf(self):
        l = seq(0)
        assert sequence_from_tree(tree_from_sequence(l)) == l

    def test_round_trip_complete_tree(self):
        l = seq(2, 2, 2, 2)
        tree = tree_from_sequence(l)
        assert leaf_codewords(tree) == ("00", "01", "10", "11")
        assert sequence_from_tree(tree) == l

    def test_round_trips_exhaustive(self, holds):
        holds(8, "kraft-realization")

    def test_leaves_are_the_canonical_code(self):
        for n in range(1, 13):
            for l in enumerate_universe(n):
                assert leaf_codewords(tree_from_sequence(l)) == canonical_code(l)

    def test_deep_caterpillar_round_trips(self):
        l = top(5000)
        assert sequence_from_tree(tree_from_sequence(l)) == l

    def test_one_child_is_malformed(self):
        with pytest.raises(MalformedTree):
            CodeTree((CodeTree(),))
        with pytest.raises(MalformedTree):
            CodeTree((CodeTree(), CodeTree(), CodeTree()))

    def test_hand_built_tree(self):
        lopsided = CodeTree((CodeTree(), CodeTree((CodeTree(), CodeTree()))))
        assert sequence_from_tree(lopsided) == seq(1, 2, 2)


class TestNodesWithinDepth:
    def test_complete_tree(self):
        assert nodes_within_depth(seq(2, 2, 2, 2), 2) == 7

    def test_three_leaves_budget_one(self):
        # root plus both its children exist within depth 1
        assert nodes_within_depth(seq(1, 2, 2), 1) == 3

    def test_caterpillar_budget_two(self):
        assert nodes_within_depth(seq(1, 2, 3, 3), 2) == 5

    def test_budget_zero_and_saturation(self):
        assert nodes_within_depth(seq(1, 2, 2), 0) == 1
        for l in (seq(2, 2, 2, 2), seq(1, 2, 3, 3)):
            assert nodes_within_depth(l, 50) == 2 * len(l) - 1

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            nodes_within_depth(seq(1, 1), -1)

    def test_matches_prefix_oracle(self):
        for n in range(1, 9):
            for l in enumerate_universe(n):
                for d in range(n + 2):
                    assert nodes_within_depth(l, d) == node_count_oracle(l, d)

    def test_antitone_in_the_order(self):
        for n in range(1, 9):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    if leq(a, b):
                        for d in range(n + 1):
                            assert nodes_within_depth(a, d) >= nodes_within_depth(b, d)


class TestSumComponents:
    def test_examples(self):
        assert sum_components(seq(0)) == 0
        assert sum_components(seq(1, 2, 3, 3)) == 9

    def test_chain_of_five(self):
        chain = [seq(2, 2, 2, 3, 3), seq(1, 3, 3, 3, 3), seq(1, 2, 3, 4, 4)]
        assert [sum_components(l) for l in chain] == [12, 13, 14]

    def test_strictly_monotone(self):
        for n in range(1, 10):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    if a != b and leq(a, b):
                        assert sum_components(a) < sum_components(b)


class TestRenderings:
    def test_ascii(self):
        assert tree_ascii(tree_from_sequence(seq(1, 2, 2))) == (
            "*\n"
            "+-- 0\n"
            "`-- *\n"
            "    +-- 10\n"
            "    `-- 11\n"
        )

    def test_ascii_single_leaf(self):
        assert tree_ascii(tree_from_sequence(seq(0))) == "(empty)\n"

    def test_dot(self):
        assert tree_dot(tree_from_sequence(seq(1, 2, 2))) == (
            "digraph code_tree {\n"
            '    n [shape=circle, label=""];\n'
            '    n0 [shape=box, label="0 (1)"];\n'
            '    n1 [shape=circle, label=""];\n'
            '    n10 [shape=box, label="10 (2)"];\n'
            '    n11 [shape=box, label="11 (2)"];\n'
            '    n -> n0 [label="0"];\n'
            '    n -> n1 [label="1"];\n'
            '    n1 -> n10 [label="0"];\n'
            '    n1 -> n11 [label="1"];\n'
            "}\n"
        )

    def test_dot_single_leaf(self):
        assert tree_dot(tree_from_sequence(seq(0))) == (
            "digraph code_tree {\n"
            '    n [shape=box, label="(empty) (0)"];\n'
            "}\n"
        )
