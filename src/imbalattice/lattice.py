"""The finite lattice of path-length sequences with a fixed length.

For each n the sequences of length n form a lattice under balance
dominance.  This module enumerates and counts that universe, computes
meets by the contraction recursion, joins by folding the meet over
enumerated upper bounds, derives the balancing moves whose closure
generates the order, and exposes the covering (Hasse) structure, read off
those moves, with JSON and DOT exports.

Enumeration, counting and unranking read one table.  A sequence is read
top-down as so many leaves at depth 0, then so many at depth 1, and so on;
``f(k, m)`` counts the ways to place ``k`` leaves still to come when ``m``
nodes are open at the current depth.  Either the next open node is a leaf,
or none is and all ``m`` split into ``2m`` at the next depth, so

    f(k, m) = f(k - 1, m - 1) + f(k, 2m),   f(0, 0) = 1,

with ``f(k, m) = 0`` when ``m > k`` or ``m = 0 < k``; the universe has
``f(n, 1)`` elements.  Telescoping the first term gives the same table as
``f(k, m) = [k == m] + sum(f(k - j, 2(m - j)) for j < m)``, the sum over
``j`` leaves at the current depth.  Taking the leaf branch first is
lexicographic order, so one descent through the table unranks an index
without building the universe, and descending once per index enumerates
it in order, with nothing to sort.  An independent enumeration lives in
``imbalattice.oracle`` precisely so the two can be checked against each
other.

The meet recursion compares no partial sums.  Each level keeps the upper
expansion of the contractions' meet exactly when its last component is
below both arguments' last components, and the lower expansion otherwise;
the last law (``last meet == min(last s, last t)``) proves that this is the
order test the recursion asks for (see ``meet``).  So the recursion reads
only the chain of ``min(last a, last b)`` over the contraction levels and
keeps nothing else of the arguments: ``meet`` runs in O(n) memory.

A balancing move's excess index is likewise a local test on three
neighbours and the first component, and so are the covers: an element
covers one step target per distinct leaf that its moves split (see
``_lower_covers``), so the Hasse diagram needs no order comparison.

Enumeration, meet, the balancing moves and the covers run on plain
component tuples, which keep the invariants by construction; each
sequence they return is built once through the validating
``PathLengthSequence`` constructor, and the Hasse diagram, which returns
cover indices, builds no sequence for its covers.

Only universe construction is memoized; the leaf-count table, a count's
row and the cover edges live for one call.  All returned values are
immutable, so results may be shared freely across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache, reduce
from typing import Iterator

from ._value import Value
from .errors import (
    ElementNotInUniverse,
    LengthMismatch,
    NotAnExcessIndex,
    ResourceLimit,
)
from .sequences import PathLengthSequence, format_sequence, leq
from .transforms import _contract, _expand, _lower_index

__all__ = [
    "DEFAULT_CEILING",
    "BalancingStep",
    "LatticeUniverse",
    "balancing_step",
    "bottom",
    "count_universe",
    "covering_pairs",
    "enumerate_universe",
    "excess_indices",
    "hasse",
    "hasse_dot",
    "hasse_json",
    "join",
    "meet",
    "minimal_balancing_relation",
    "top",
]

# Enumeration grows roughly like 1.79**n; the ceiling guards against
# accidental blowups and can be raised explicitly by callers who mean it.
DEFAULT_CEILING = 20


class LatticeUniverse(Value):
    """Every path-length sequence of length ``n``, lexicographically sorted.

    ``cover_edges`` is either ``None`` (not computed, see ``hasse``) or the
    transitive reduction of the order as index pairs ``(a, b)`` meaning
    ``elements[a]`` is covered by ``elements[b]``, sorted.  The edges are
    derived from balancing steps, not from a pairwise reduction.
    """

    # No __slots__: ``_positions`` caches itself in the instance __dict__.
    _fields = ("n", "elements", "cover_edges")
    n: int
    elements: tuple[PathLengthSequence, ...]
    cover_edges: tuple[tuple[int, int], ...] | None

    def __init__(
        self,
        n: int,
        elements: tuple[PathLengthSequence, ...],
        cover_edges: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "cover_edges", cover_edges)

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {el.components: i for i, el in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[PathLengthSequence]:
        return iter(self.elements)

    def __contains__(self, l: object) -> bool:
        return isinstance(l, PathLengthSequence) and l.components in self._positions

    def index(self, l: PathLengthSequence) -> int:
        if l not in self:
            raise ElementNotInUniverse(f"{l} is not a length-{self.n} sequence")
        return self._positions[l.components]


class BalancingStep(Value):
    """One minimal balancing move: ``target`` is ``source`` rebalanced at
    its excess index ``excess_index``, hence strictly more balanced."""

    __slots__ = _fields = ("source", "excess_index", "target")
    source: PathLengthSequence
    excess_index: int
    target: PathLengthSequence

    def __init__(
        self, source: PathLengthSequence, excess_index: int, target: PathLengthSequence
    ) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "excess_index", excess_index)
        object.__setattr__(self, "target", target)


def _check_size(n: int, ceiling: int) -> None:
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n > ceiling:
        raise ResourceLimit(
            f"n={n} exceeds the enumeration ceiling {ceiling}; "
            "pass a larger ceiling explicitly to proceed"
        )


def _leaf_row(above: tuple[int, ...]) -> tuple[int, ...]:
    """Row ``k`` of the leaf-count table from row ``k - 1``.

    Row ``k`` holds ``f(k, m)`` for ``m = 0..k`` (see the module
    docstring).  ``m`` runs downwards, since ``f(k, m)`` reads ``f(k, 2m)``
    from the same row.  O(k) additions.
    """
    k = len(above)
    row = [0] * (k + 1)
    for m in range(k, 0, -1):
        row[m] = above[m - 1] + (row[2 * m] if 2 * m <= k else 0)
    return tuple(row)


def _leaf_counts(n: int) -> list[tuple[int, ...]]:
    """Rows ``0..n`` of the leaf-count table, built afresh on each call."""
    rows = [(1,)]
    for _ in range(n):
        rows.append(_leaf_row(rows[-1]))
    return rows


def count_universe(n: int, ceiling: int = DEFAULT_CEILING) -> int:
    """The number of length-``n`` sequences, without enumerating them.

    Equals ``len(enumerate_universe(n, ceiling))`` (OEIS A002572) and
    keeps its ceiling; a caller who raises the ceiling gets exact counts
    at ``n`` in the hundreds in milliseconds.  Only the previous row of
    the table is held at any time, and nothing is kept afterwards.
    """
    _check_size(n, ceiling)
    row = (1,)
    for _ in range(n):
        row = _leaf_row(row)
    return row[1]


def _descend(rows: list[tuple[int, ...]], r: int) -> tuple[int, ...]:
    """Component tuple of the element at index ``r`` (unchecked) of the
    universe whose leaf-count rows are ``rows``, in lexicographic order.

    At each step ``f(k - 1, m - 1)`` sequences place a leaf at the current
    depth and sort before the ``f(k, 2m)`` that go one level deeper.
    """
    components = []
    k, m, depth = len(rows) - 1, 1, 0
    while k:
        here = rows[k - 1][m - 1]
        if r < here:
            components.append(depth)
            k, m = k - 1, m - 1
        else:
            r -= here
            m, depth = 2 * m, depth + 1
    return tuple(components)


@lru_cache(maxsize=None)
def _universe(n: int) -> LatticeUniverse:
    rows = _leaf_counts(n)
    return LatticeUniverse(
        n, tuple(PathLengthSequence(_descend(rows, r)) for r in range(rows[n][1]))
    )


def enumerate_universe(n: int, ceiling: int = DEFAULT_CEILING) -> LatticeUniverse:
    """All path-length sequences of length ``n``, in lexicographic order,
    by descending the leaf-count table once per index."""
    _check_size(n, ceiling)
    return _universe(n)


def _unrank(n: int, r: int) -> tuple[int, ...]:
    """Component tuple of the element at index ``r`` of the length-``n``
    universe in enumeration (lexicographic) order, without enumerating."""
    rows = _leaf_counts(n)
    count = rows[n][1]
    if not 0 <= r < count:
        raise ValueError(f"rank {r} is outside [0, {count}) for n={n}")
    return _descend(rows, r)


def _meet(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Meet of two equal-length component tuples, by contraction recursion.

    The recursion runs as a loop, so any length works.  Each level is
    decided by ``min(last a, last b)`` alone (see ``meet``), so the way down
    contracts both arguments and records only that chain of last
    components, dropping each pair of tuples as it goes; the way back up
    rebuilds the result from ``(0)``.  Memory stays O(n).
    """
    lasts = []
    while len(s) > 1:
        lasts.append(min(s[-1], t[-1]))
        s, t = _contract(s), _contract(t)
    result = s
    for last in reversed(lasts):
        if result[-1] < last:
            result = _expand(result, len(result) - 1)
        else:
            result = _expand(result, _lower_index(result))
    return result


def meet(s: PathLengthSequence, t: PathLengthSequence) -> PathLengthSequence:
    """Greatest lower bound in the balance order, by contraction recursion.

    For single components the meet is ``(0)``.  Otherwise, with ``m`` the
    meet of the two contractions: the result is the upper expansion of ``m``
    when that is below both arguments, else the lower expansion of ``m``.
    The result always satisfies ``last(meet(s, t)) == min(last s, last t)``
    (the last law).

    That test needs no order scan: the upper expansion is kept exactly when
    ``last m < min(last s, last t)``.  Let ``mu = min(last s, last t)``.
    Contraction lowers ``last`` by at most one, so by the last law ``last m``
    is ``mu - 1`` or ``mu`` and the upper expansion ends at ``mu`` or
    ``mu + 1``.  If it ends at ``mu + 1`` it is not below both, since
    ``x <= y`` forces ``last x <= last y``.  If it ends at ``mu``, the lower
    expansion would end at ``mu - 1`` and break the last law, unless ``m``
    is constant, and then the two expansions are equal.  Intermediate
    sequences stay plain tuples; only the result is validated.
    """
    if len(s) != len(t):
        raise LengthMismatch(f"cannot meet lengths {len(s)} and {len(t)}")
    return PathLengthSequence(_meet(s.components, t.components))


def join(
    s: PathLengthSequence, t: PathLengthSequence, ceiling: int = DEFAULT_CEILING
) -> PathLengthSequence:
    """Least upper bound, as the meet-fold over all enumerated upper bounds.

    The meet-fold is what is implemented: the universe is finite and closed
    under meets, so folding the meet over the (never empty) set of common
    upper bounds yields the join.  Needs ``len(s)`` within the enumeration
    ceiling.
    """
    if len(s) != len(t):
        raise LengthMismatch(f"cannot join lengths {len(s)} and {len(t)}")
    uppers = [
        u for u in enumerate_universe(len(s), ceiling) if leq(s, u) and leq(t, u)
    ]
    return reduce(meet, uppers)


def _is_excess(c: tuple[int, ...], j: int) -> bool:
    """Whether the 1-based ``j`` is an excess index of a component tuple.

    The test is local: ``c[j - 2] < c[j - 1] == c[j]`` and the shallowest
    leaf, ``c[0]``, is at most ``c[j - 1] - 2``.
    """
    return 2 <= j < len(c) and c[j - 2] < c[j - 1] == c[j] and c[0] <= c[j - 1] - 2


def _excess(c: tuple[int, ...]) -> tuple[int, ...]:
    """Excess indices (1-based) of a component tuple."""
    return tuple(j for j in range(2, len(c)) if _is_excess(c, j))


def _split_leaf(c: tuple[int, ...], j: int) -> int:
    """The 0-based position of the leaf that the move at excess index ``j``
    splits: the last position before ``j - 1`` with depth at most
    ``c[j - 1] - 2``."""
    return bisect_right(c, c[j - 1] - 2, 0, j - 1) - 1


def _balance(c: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The balancing move at excess index ``j`` (unchecked) on a tuple.

    Positions ``j - 1`` and ``j`` (0-based) hold the first two copies of
    ``deep = c[j - 1]``; they merge into one ``deep - 1``.  The leaf at
    ``i = _split_leaf(c, j)`` splits into two of ``c[i] + 1``.  Both
    replacements keep the tuple sorted.
    """
    deep = c[j - 1]
    i = _split_leaf(c, j)
    split = c[i] + 1
    return c[:i] + (split, split) + c[i + 1 : j - 1] + (deep - 1,) + c[j + 1 :]


def excess_indices(l: PathLengthSequence) -> tuple[int, ...]:
    """Interior positions where a balancing move applies.

    A 1-based ``j`` qualifies when ``l_{j-1} < l_j == l_{j+1}`` and some
    component is at most ``l_j - 2``.  Empty exactly for the near-constant
    (bottom) sequence.
    """
    return _excess(l.components)


def balancing_step(l: PathLengthSequence, j: int) -> PathLengthSequence:
    """Apply the minimal balancing move at excess index ``j``.

    With ``i`` the last position whose depth is at most ``l_j - 2``: the
    leaf at ``i`` is split (one copy of ``l_i`` becomes two of ``l_i + 1``)
    and the first two copies of ``l_j`` merge into one ``l_j - 1``.  The
    result has the same length and is strictly more balanced.
    """
    if not (isinstance(j, int) and _is_excess(l.components, j)):
        raise NotAnExcessIndex(f"{j} is not an excess index of {l}")
    return PathLengthSequence(_balance(l.components, j))


def minimal_balancing_relation(
    n: int, ceiling: int = DEFAULT_CEILING
) -> tuple[BalancingStep, ...]:
    """Every balancing move available in the length-n universe.

    The reflexive-transitive closure of these steps is exactly the balance
    order, and the covering relation is contained (generally properly) in
    the step set.  Steps come sorted by ``(source.components,
    excess_index)``: the universe is walked in lexicographic order and each
    source's excess indices in ascending order.
    """
    steps = []
    for l in enumerate_universe(n, ceiling):
        c = l.components
        for j in _excess(c):
            steps.append(BalancingStep(l, j, PathLengthSequence(_balance(c, j))))
    return tuple(steps)


def _lower_covers(c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Component tuples of the elements ``c`` covers: one per distinct
    split leaf.

    Taken in excess-index order, the split leaf ``i(j) = _split_leaf(c, j)``
    never decreases: a larger ``j`` has a ``c[j - 1]`` at least as deep and
    a wider prefix to search.  The covers are the targets of the steps
    at the first excess index of each new split leaf, in that order; empty
    for the bottom.  No order comparison is made.

    Proof.  Every cover of ``c`` is a step target: the steps generate the
    order, so a chain of steps runs from ``c`` down to any ``v < c``, and its
    first target ``t`` has ``v <= t < c``, so ``t == v`` when ``c`` covers
    ``v``.  Hence the covers are exactly the maximal step targets.  Write
    ``D(j)`` for the partial sums of ``c`` minus those of the target at
    ``j``.  It is nonzero exactly on the 0-based positions ``i(j)..j - 1``:
    half the split leaf's weight at ``i(j)``, then ``c``'s own weight at
    each later position.  A target lies below another exactly when its
    ``D`` is componentwise at least the other's.

    * ``j < k`` with ``i(j) == i(k)``: ``D(k)`` equals ``D(j)`` on
      ``i(j)..j - 1`` and is positive on ``j..k - 1``, where ``D(j)`` is 0,
      so the target at ``k`` lies strictly below the target at ``j``.
    * ``j < k`` with ``i(j) < i(k)``: ``D(j)`` is positive at ``i(j)``, where
      ``D(k)`` is 0, and ``D(k)`` is positive at ``k - 1``, where ``D(j)``
      is 0, so the two targets are incomparable.

    So within a run of one split leaf only the first target is maximal, and
    the first targets of different runs are pairwise incomparable, hence
    distinct and all maximal.  ``covering-within-balancing`` checks the rule
    against the definition-level reduction of the oracle.
    """
    covers = []
    split = None
    for j in _excess(c):
        if (i := _split_leaf(c, j)) != split:
            covers.append(_balance(c, j))
            split = i
    return covers


def _cover_edges(n: int) -> tuple[tuple[int, int], ...]:
    universe = _universe(n)
    positions = universe._positions
    return tuple(sorted(
        (positions[low], b)
        for b, u in enumerate(universe.elements)
        for low in _lower_covers(u.components)
    ))


def hasse(n: int, ceiling: int = DEFAULT_CEILING) -> LatticeUniverse:
    """The universe together with its covering edges (transitive reduction).

    Covers come from balancing steps (see ``_lower_covers``): one step per
    distinct split leaf and no order comparison, so the cost is O(n) per
    element plus building each cover's tuple and looking up its index; no
    cover is built as a sequence.  The definition-level reduction lives in
    ``imbalattice.oracle.covering_pairs_by_definition`` as the independent
    check.
    """
    _check_size(n, ceiling)
    return LatticeUniverse(n, _universe(n).elements, _cover_edges(n))


def covering_pairs(
    n: int, ceiling: int = DEFAULT_CEILING
) -> tuple[tuple[PathLengthSequence, PathLengthSequence], ...]:
    """Cover pairs ``(lower, upper)``: ``lower`` is covered by ``upper``."""
    universe = hasse(n, ceiling)
    assert universe.cover_edges is not None
    return tuple(
        (universe.elements[a], universe.elements[b]) for a, b in universe.cover_edges
    )


def bottom(n: int) -> PathLengthSequence:
    """The unique near-constant sequence: the most balanced tree.

    With ``n = 2**q + r`` and ``0 <= r < 2**q`` it has ``2**q - r`` leaves
    at depth ``q`` and ``2r`` at depth ``q + 1``.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    q = n.bit_length() - 1
    r = n - (1 << q)
    return PathLengthSequence((q,) * ((1 << q) - r) + (q + 1,) * (2 * r))


def top(n: int) -> PathLengthSequence:
    """The caterpillar sequence ``(1, 2, .., n-1, n-1)``: least balanced."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n == 1:
        return PathLengthSequence((0,))
    return PathLengthSequence(tuple(range(1, n)) + (n - 1,))


def hasse_json(universe: LatticeUniverse) -> str:
    """Serialize a universe with covers as one deterministic JSON object.

    Schema: ``{"n": int, "nodes": [[int, ..], ..], "covers": [[a, b], ..]}``
    where each cover pair means ``nodes[a]`` is covered by ``nodes[b]`` and
    nodes are in lexicographic order.
    """
    import json

    if universe.cover_edges is None:
        raise ValueError("universe has no cover edges; build it with hasse()")
    payload = {
        "n": universe.n,
        "nodes": [list(el.components) for el in universe.elements],
        "covers": [list(edge) for edge in universe.cover_edges],
    }
    return json.dumps(payload, separators=(", ", ": "))


def hasse_dot(universe: LatticeUniverse) -> str:
    """Render the covering structure as a Graphviz digraph.

    Each node is labeled with its comma syntax; each cover contributes one
    edge from the less balanced element down to the more balanced one, so
    the default layout places the top (caterpillar) sequence at the top.
    """
    if universe.cover_edges is None:
        raise ValueError("universe has no cover edges; build it with hasse()")
    lines = [f"digraph imbalance_lattice_{universe.n} {{"]
    for el in universe.elements:
        lines.append(f'    "{format_sequence(el)}";')
    for a, b in universe.cover_edges:
        upper = format_sequence(universe.elements[b])
        lower = format_sequence(universe.elements[a])
        lines.append(f'    "{upper}" -> "{lower}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
