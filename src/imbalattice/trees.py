"""Canonical trees and prefix codes realizing path-length sequences.

Kraft's theorem pairs every path-length sequence with a full binary tree
whose leaf depths, read left to right, are the sequence.  The canonical
realization used here assigns consecutive binary codewords in depth order
(the classic canonical prefix code), which makes the tree unique: shallow
leaves sit leftmost.  ``tree_from_sequence`` builds that tree in one
left-to-right pass over the depths with a stack of open internal nodes, so
it needs neither the codeword strings nor recursion; the walkers
(``leaf_codewords``, ``tree_ascii``, ``tree_dot``) share one preorder walk
on an explicit stack, so a tree of any depth can be built, read back and
rendered.

Two tree parameters drive monotonicity arguments about the balance order:
the component sum (the external path length, strictly increasing with
imbalance) and the number of nodes within a depth budget (never smaller for
a more balanced tree).
"""

from __future__ import annotations

from operator import index as _as_int
from typing import Iterator

from ._value import Value
from .errors import MalformedTree
from .sequences import PathLengthSequence

__all__ = [
    "CodeTree",
    "canonical_code",
    "leaf_codewords",
    "nodes_within_depth",
    "sequence_from_tree",
    "sum_components",
    "tree_ascii",
    "tree_dot",
    "tree_from_sequence",
]


class CodeTree(Value):
    """A full binary tree with ordered children.

    A node is a leaf when ``children`` is ``None``; otherwise it has exactly
    two children in left/right order.  Any other child count is rejected as
    malformed (binary trees realizing Kraft sequences are always full).
    """

    __slots__ = _fields = ("children",)
    children: tuple[CodeTree, CodeTree] | None

    def __init__(self, children: tuple[CodeTree, CodeTree] | None = None) -> None:
        if children is not None:
            children = tuple(children)
            if len(children) != 2 or not all(isinstance(c, CodeTree) for c in children):
                raise MalformedTree(
                    f"a node needs exactly two subtrees or none, got {len(children)}"
                )
        object.__setattr__(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def canonical_code(l: PathLengthSequence) -> tuple[str, ...]:
    """The canonical prefix code with codeword lengths exactly ``l``.

    The first codeword is ``l_1`` zeros; each next codeword is the previous
    one incremented as a binary number and shifted to the next length.
    Kraft equality guarantees the result is a complete prefix-free set.
    """
    words: list[str] = []
    value = 0
    previous = l.first
    for length in l:
        if words:
            value = (value + 1) << (length - previous)
        word = format(value, "b").zfill(length) if length else ""
        assert len(word) == length  # cannot overflow: Kraft equality holds
        words.append(word)
        previous = length
    return tuple(words)


def tree_from_sequence(l: PathLengthSequence) -> CodeTree:
    """The canonical tree whose left-to-right leaf depths are ``l``.

    Built from a stack in one left-to-right pass: ``open_nodes[d]`` holds
    the finished children of the open internal node at depth ``d``.  Each
    leaf goes into the leftmost free slot, after opening internal nodes down
    to its depth, and every node that receives its second child closes and
    becomes a child of the node above.  O(n), with no recursion.
    """
    open_nodes: list[list[CodeTree]] = []
    for depth in l:
        open_nodes.extend([] for _ in range(depth - len(open_nodes)))
        node = CodeTree()
        while open_nodes:
            siblings = open_nodes[-1]
            siblings.append(node)
            if len(siblings) == 1:
                break
            open_nodes.pop()
            node = CodeTree(tuple(siblings))
    return node


def _preorder(tree: CodeTree) -> Iterator[tuple[CodeTree, str]]:
    """Every node with its root path, parents before children and left
    before right, walked from an explicit stack."""
    stack = [(tree, "")]
    while stack:
        node, path = stack.pop()
        yield node, path
        if not node.is_leaf:
            left, right = node.children
            stack.append((right, path + "1"))
            stack.append((left, path + "0"))


def leaf_codewords(tree: CodeTree) -> tuple[str, ...]:
    """Left-to-right root paths of the leaves, as 0/1 strings."""
    return tuple(path for node, path in _preorder(tree) if node.is_leaf)


def sequence_from_tree(tree: CodeTree) -> PathLengthSequence:
    """Sorted leaf depths of a full binary tree.

    Inverse of ``tree_from_sequence`` on canonical trees; any full binary
    tree yields a valid sequence because Kraft equality is automatic.
    """
    return PathLengthSequence(tuple(sorted(len(w) for w in leaf_codewords(tree))))


def nodes_within_depth(l: PathLengthSequence, d: int) -> int:
    """Number of tree nodes at depth at most ``d``.

    Counted level by level without materializing the tree: the root is one
    node, and each level holds twice the internal nodes of the level above.
    More balanced sequences never have fewer nodes within any depth budget,
    which is the monotone parameter behind the irreducibility shape test.
    """
    d = _as_int(d)
    if d < 0:
        raise ValueError(f"depth budget must be nonnegative, got {d}")
    total = 0
    width = 1
    for level in range(min(d, l.last) + 1):
        total += width
        leaves_here = sum(1 for c in l if c == level)
        width = 2 * (width - leaves_here)
    return total


def sum_components(l: PathLengthSequence) -> int:
    """Component sum: the external path length of the canonical tree."""
    return sum(l.components)


# What each step of a root path draws in front of a deeper node's line.
_RAILS = str.maketrans({"0": "|   ", "1": "    "})


def tree_ascii(tree: CodeTree) -> str:
    """Plain-text rendering; internal nodes print ``*``, leaves their codeword."""
    lines: list[str] = []
    for node, path in _preorder(tree):
        label = (path or "(empty)") if node.is_leaf else "*"
        if path:
            connector = "+-- " if path[-1] == "0" else "`-- "
            label = path[:-1].translate(_RAILS) + connector + label
        lines.append(label)
    return "\n".join(lines) + "\n"


def tree_dot(tree: CodeTree) -> str:
    """Graphviz rendering: internal nodes unlabeled, leaves labeled with
    codeword and depth."""
    nodes: list[str] = []
    edges: list[str] = []
    for node, path in _preorder(tree):
        name = "n" + path
        if path:
            edges.append(f'    n{path[:-1]} -> {name} [label="{path[-1]}"];')
        if node.is_leaf:
            word = path if path else "(empty)"
            nodes.append(f'    {name} [shape=box, label="{word} ({len(path)})"];')
        else:
            nodes.append(f'    {name} [shape=circle, label=""];')
    return "\n".join(["digraph code_tree {", *nodes, *edges, "}"]) + "\n"
