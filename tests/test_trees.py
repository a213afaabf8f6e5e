import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import imbalattice

from imbalattice import (
    CodeTree,
    MalformedTree,
    bottom,
    canonical_code,
    count_universe,
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
from imbalattice.lattice import _unrank


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


def nodes_per_level(l):
    """Nodes within each depth budget 0..last, scanning every component for
    each level's leaves: O(n * depth), a reference for long sequences."""
    totals, width = [], 1
    for level in range(l.last + 1):
        totals.append((totals[-1] if totals else 0) + width)
        width = 2 * (width - sum(1 for c in l.components if c == level))
    return totals


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
        tree = tree_from_sequence(l)
        assert sequence_from_tree(tree) == l
        assert leaf_codewords(tree) == canonical_code(l)

    def test_one_child_is_malformed(self):
        with pytest.raises(MalformedTree):
            CodeTree((CodeTree(),))
        with pytest.raises(MalformedTree):
            CodeTree((CodeTree(), CodeTree(), CodeTree()))

    def test_hand_built_tree(self):
        lopsided = CodeTree((CodeTree(), CodeTree((CodeTree(), CodeTree()))))
        assert sequence_from_tree(lopsided) == seq(1, 2, 2)


def every_shape(leaves):
    """Every full binary tree with the given number of leaves."""
    if leaves == 1:
        return [CodeTree()]
    return [
        CodeTree((left, right))
        for k in range(1, leaves)
        for left in every_shape(k)
        for right in every_shape(leaves - k)
    ]


def fields_of(tree):
    """The nested field tuples that ``Value`` compares, hashes and prints."""
    if tree.is_leaf:
        return (None,)
    left, right = tree.children
    return ((fields_of(left), fields_of(right)),)


def text_of(tree):
    """The recursive ``repr`` that ``Value`` gives."""
    if tree.is_leaf:
        return "CodeTree(children=None)"
    left, right = tree.children
    return f"CodeTree(children=({text_of(left)}, {text_of(right)}))"


class TestCodeTreeValue:
    SHAPES = [tree for leaves in range(1, 8) for tree in every_shape(leaves)]

    def test_equal_exactly_when_the_shapes_are(self):
        twins = [tree for leaves in range(1, 8) for tree in every_shape(leaves)]
        for i, a in enumerate(self.SHAPES):
            for j, b in enumerate(twins):
                assert (a == b) == (i == j)

    def test_hash_and_repr_are_those_of_the_fields(self):
        for tree in self.SHAPES:
            assert hash(tree) == hash(fields_of(tree))
            assert repr(tree) == text_of(tree)
        assert len(set(self.SHAPES)) == len(self.SHAPES)

    def test_copies_and_pickles_keep_the_shape(self):
        for tree in self.SHAPES:
            for twin in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
                assert twin == tree and leaf_codewords(twin) == leaf_codewords(tree)

    def test_deep_trees_compare_hash_print_and_pickle(self):
        # 4999 levels, far past the default recursion limit; a subprocess, so
        # that a crash in C recursion cannot take the test run down with it
        code = (
            "import copy, pickle\n"
            "from imbalattice import top, tree_from_sequence\n"
            "tree = tree_from_sequence(top(5000))\n"
            "assert tree == tree_from_sequence(top(5000))\n"
            "assert hash(tree) == hash(tree_from_sequence(top(5000)))\n"
            "assert repr(tree).count('children=None') == 5000\n"
            "assert pickle.loads(pickle.dumps(tree)) == tree\n"
            "assert copy.deepcopy(tree) == tree\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, b"")


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

    def test_matches_the_per_level_count_on_long_sequences(self):
        draw = random.Random(1000)
        pool = [top(1000), top(2000), bottom(2000)] + [
            validate(_unrank(n, draw.randrange(count_universe(n, n))))
            for n in (1000, 1000, 1000, 1500)
        ]
        for l in pool:
            totals = nodes_per_level(l)
            budgets = {*range(0, l.last + 1, max(1, l.last // 40)), l.last}
            for d in budgets:
                assert nodes_within_depth(l, d) == totals[d], (len(l), d)
            assert nodes_within_depth(l, l.last + 7) == totals[-1] == 2 * len(l) - 1

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
