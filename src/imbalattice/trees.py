"""Canonical trees and prefix codes realizing path-length sequences.

Kraft's theorem pairs every path-length sequence with a full binary tree
whose leaf depths, read left to right, are the sequence.  The canonical
realization used here assigns consecutive binary codewords in depth order
(the classic canonical prefix code), which makes the tree unique: shallow
leaves sit leftmost.  Its codewords are the partial sums of the Kraft
weights that the balance order compares, written in binary.
``tree_from_sequence`` builds that tree in one left-to-right pass over the
depths with a stack of open internal nodes, so it needs neither the
codeword strings nor recursion; the walkers
(``leaf_codewords``, ``tree_ascii``, ``tree_dot``) share one preorder walk
on an explicit stack, so a tree of any depth can be built, read back and
rendered.  A ``CodeTree`` compares, hashes, prints and pickles through its
preorder shape, also without recursion: equal when the class and the shape
are, hashed as its field tuple, printed as its nested fields, and pickled
or copied as the shape it is rebuilt from.

Two tree parameters drive monotonicity arguments about the balance order:
the component sum (the external path length, strictly increasing with
imbalance) and the number of nodes within a depth budget (never smaller for
a more balanced tree).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import index as _as_int
from typing import Iterator

from ._value import Value
from .errors import MalformedTree
from .sequences import PathLengthSequence, _weights

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

    Comparison, hashing, printing and pickling walk the tree from an
    explicit stack, so they work at any depth.  Two trees are equal when
    they are of the same class and have the same preorder shape; the hash
    is that of the field tuple ``(children,)``, worked out bottom-up; the
    ``repr`` nests ``CodeTree(children=...)`` as the fields read; and
    ``pickle``, ``copy`` and ``deepcopy`` rebuild the tree from its shape.
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

    def _shape(self) -> str:
        """The preorder shape: ``1`` for each internal node, ``0`` for each
        leaf."""
        marks = []
        todo = [self]
        while todo:
            node = todo.pop()
            if node.children is None:
                marks.append("0")
            else:
                marks.append("1")
                todo += reversed(node.children)
        return "".join(marks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._shape() == other._shape()
        return NotImplemented

    def __hash__(self) -> int:
        # A tuple's hash reads only its items' hashes, so each node's hash
        # is the tuple hash of its children's, already worked out below it.
        return _fold(
            self._shape(),
            lambda: hash((None,)),
            lambda left, right: hash(((_Hashed(left), _Hashed(right)),)),
        )

    def __repr__(self) -> str:
        parts = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.children is None:
                parts.append(f"{item.__class__.__qualname__}(children=None)")
            else:
                parts.append(f"{item.__class__.__qualname__}(children=(")
                todo += ("))", item.children[1], ", ", item.children[0])
        return "".join(parts)

    def __reduce__(self):
        return _rebuild, (self.__class__, self._shape())


class _Hashed:
    """Stands in for a subtree in a tuple whose hash is wanted: its own hash
    is the subtree's, given."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _fold(shape: str, leaf, node):
    """Fold a preorder shape bottom-up: each leaf becomes ``leaf()`` and
    each internal node ``node(left, right)`` of its children's values.
    Read backwards, a shape lists every node after its whole subtree, with
    the left child's value on top of the right's."""
    values = []
    for mark in reversed(shape):
        values.append(node(values.pop(), values.pop()) if mark == "1" else leaf())
    return values.pop()


def _rebuild(cls: type[CodeTree], shape: str) -> CodeTree:
    """The tree of the given class and preorder shape (``__reduce__``)."""
    return _fold(shape, cls, lambda left, right: cls((left, right)))


def canonical_code(l: PathLengthSequence) -> tuple[str, ...]:
    """The canonical prefix code with codeword lengths exactly ``l``.

    Codeword ``i`` is the sum of the weights ``2**(last l - l_j)`` over
    ``j < i``, shifted down to ``l_i`` bits.  The shift drops no bit, since
    every earlier weight is a multiple of ``2**(last l - l_i)``; and the sum
    stays below ``2**last l`` by Kraft equality, so each codeword fits its
    length and the result is a complete prefix-free set.
    """
    c = l.components
    scale = l.last
    return tuple(
        format(start >> (scale - length), "b").zfill(length) if length else ""
        for start, length in zip(accumulate(_weights(c, scale), initial=0), c)
    )


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
    The components are sorted, so each level's leaves are one run, which
    ``bisect_right`` finds from where the run above ended: O(depth * log n)
    in all.
    More balanced sequences never have fewer nodes within any depth budget,
    which is the monotone parameter behind the irreducibility shape test.
    """
    d = _as_int(d)
    if d < 0:
        raise ValueError(f"depth budget must be nonnegative, got {d}")
    c = l.components
    total = 0
    width = 1
    above = 0
    for level in range(min(d, l.last) + 1):
        total += width
        through = bisect_right(c, level, above)
        width = 2 * (width - (through - above))
        above = through
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
