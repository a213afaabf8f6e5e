"""Canonical trees and prefix codes realizing path-length sequences.

Kraft's theorem pairs every path-length sequence with a full binary tree
whose leaf depths, read left to right, are the sequence.  The canonical
realization used here assigns consecutive binary codewords in depth order
(the classic canonical prefix code), which makes the tree unique: shallow
leaves sit leftmost.

Two tree parameters drive monotonicity arguments about the balance order:
the component sum (the external path length, strictly increasing with
imbalance) and the number of nodes within a depth budget (never smaller for
a more balanced tree).
"""

from __future__ import annotations

from operator import index as _as_int

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
    """The canonical tree whose left-to-right leaf depths are ``l``."""
    return _build(list(canonical_code(l)))


def _build(words: list[str]) -> CodeTree:
    if words == [""]:
        return CodeTree()
    left = [w[1:] for w in words if w[0] == "0"]
    right = [w[1:] for w in words if w[0] == "1"]
    return CodeTree((_build(left), _build(right)))


def leaf_codewords(tree: CodeTree) -> tuple[str, ...]:
    """Left-to-right root paths of the leaves, as 0/1 strings."""
    out: list[str] = []

    def walk(node: CodeTree, path: str) -> None:
        if node.is_leaf:
            out.append(path)
        else:
            walk(node.children[0], path + "0")
            walk(node.children[1], path + "1")

    walk(tree, "")
    return tuple(out)


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


def tree_ascii(tree: CodeTree) -> str:
    """Plain-text rendering; internal nodes print ``*``, leaves their codeword."""
    lines: list[str] = []

    def label(node: CodeTree, path: str) -> str:
        if node.is_leaf:
            return path if path else "(empty)"
        return "*"

    def walk(node: CodeTree, path: str, prefix: str, is_last: bool) -> None:
        connector = "`-- " if is_last else "+-- "
        lines.append(prefix + connector + label(node, path))
        if not node.is_leaf:
            extension = "    " if is_last else "|   "
            walk(node.children[0], path + "0", prefix + extension, False)
            walk(node.children[1], path + "1", prefix + extension, True)

    lines.append(label(tree, ""))
    if not tree.is_leaf:
        walk(tree.children[0], "0", "", False)
        walk(tree.children[1], "1", "", True)
    return "\n".join(lines) + "\n"


def tree_dot(tree: CodeTree) -> str:
    """Graphviz rendering: internal nodes unlabeled, leaves labeled with
    codeword and depth."""
    nodes: list[str] = []
    edges: list[str] = []

    def walk(node: CodeTree, path: str) -> None:
        name = "n" + path
        if node.is_leaf:
            word = path if path else "(empty)"
            nodes.append(f'    {name} [shape=box, label="{word} ({len(path)})"];')
        else:
            nodes.append(f'    {name} [shape=circle, label=""];')
            for bit, child in zip("01", node.children):
                edges.append(f'    {name} -> n{path}{bit} [label="{bit}"];')
                walk(child, path + bit)

    walk(tree, "")
    return "\n".join(["digraph code_tree {", *nodes, *edges, "}"]) + "\n"
