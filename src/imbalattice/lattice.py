"""The finite lattice of path-length sequences with a fixed length.

For each n the sequences of length n form a lattice under balance
dominance.  This module enumerates that universe, computes meets by the
contraction recursion, joins by folding the meet over enumerated upper
bounds, derives the balancing moves whose closure generates the order, and
exposes the covering (Hasse) structure, read off those moves, with JSON and
DOT exports.

Enumeration grows the universe by expansion closure: every length-n
sequence arises by re-expanding its contraction, so applying every
position's expansion to the (n-1)-universe and deduplicating is complete.
An independent enumeration lives in ``imbalattice.oracle`` precisely so the
two can be checked against each other.

Universe construction is memoized; all returned values are immutable, so
results may be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterator

from .errors import (
    ElementNotInUniverse,
    LengthMismatch,
    NotAnExcessIndex,
    ResourceLimit,
)
from .sequences import PathLengthSequence, format_sequence, leq
from .transforms import contraction, expansion_at, lower_expansion, upper_expansion

__all__ = [
    "DEFAULT_CEILING",
    "BalancingStep",
    "LatticeUniverse",
    "balancing_step",
    "bottom",
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


@dataclass(frozen=True)
class LatticeUniverse:
    """Every path-length sequence of length ``n``, lexicographically sorted.

    ``cover_edges`` is either ``None`` (not computed, see ``hasse``) or the
    transitive reduction of the order as index pairs ``(a, b)`` meaning
    ``elements[a]`` is covered by ``elements[b]``, sorted.  The edges are
    derived from balancing steps, not from a pairwise reduction.
    """

    n: int
    elements: tuple[PathLengthSequence, ...]
    cover_edges: tuple[tuple[int, int], ...] | None = None

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {el.components: i for i, el in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[PathLengthSequence]:
        return iter(self.elements)

    def __contains__(self, l: PathLengthSequence) -> bool:
        return l.components in self._positions

    def index(self, l: PathLengthSequence) -> int:
        try:
            return self._positions[l.components]
        except KeyError:
            raise ElementNotInUniverse(f"{l} is not a length-{self.n} sequence") from None


@dataclass(frozen=True)
class BalancingStep:
    """One minimal balancing move: ``target`` is ``source`` rebalanced at
    its excess index ``excess_index``, hence strictly more balanced."""

    source: PathLengthSequence
    excess_index: int
    target: PathLengthSequence


def _check_size(n: int, ceiling: int) -> None:
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n > ceiling:
        raise ResourceLimit(
            f"n={n} exceeds the enumeration ceiling {ceiling}; "
            "pass a larger ceiling explicitly to proceed"
        )


@lru_cache(maxsize=None)
def _universe(n: int) -> LatticeUniverse:
    if n == 1:
        elements = (PathLengthSequence((0,)),)
    else:
        seen = set()
        for l in _universe(n - 1).elements:
            for i in range(1, n):
                seen.add(expansion_at(l, i).components)
        elements = tuple(PathLengthSequence(c) for c in sorted(seen))
    return LatticeUniverse(n, elements)


def enumerate_universe(n: int, ceiling: int = DEFAULT_CEILING) -> LatticeUniverse:
    """All path-length sequences of length ``n``, by expansion closure."""
    _check_size(n, ceiling)
    return _universe(n)


def meet(s: PathLengthSequence, t: PathLengthSequence) -> PathLengthSequence:
    """Greatest lower bound in the balance order, by contraction recursion.

    For single components the meet is ``(0)``.  Otherwise, with ``m`` the
    meet of the two contractions: the result is the upper expansion of ``m``
    when that is below both arguments, else the lower expansion of ``m``.
    The result always satisfies ``last(meet(s, t)) == min(last s, last t)``.
    The recursion runs as a loop: both contraction chains are built down to
    length 1 and then walked back up, so any length works.
    """
    if len(s) != len(t):
        raise LengthMismatch(f"cannot meet lengths {len(s)} and {len(t)}")
    chain = [(s, t)]
    while len(chain[-1][0]) > 1:
        a, b = chain[-1]
        chain.append((contraction(a), contraction(b)))
    result = chain.pop()[0]
    for a, b in reversed(chain):
        up = upper_expansion(result)
        result = up if leq(up, a) and leq(up, b) else lower_expansion(result)
    return result


def join(
    s: PathLengthSequence, t: PathLengthSequence, ceiling: int = DEFAULT_CEILING
) -> PathLengthSequence:
    """Least upper bound, as the meet-fold over all enumerated upper bounds.

    The order gives no dual recursion for joins, but the universe is finite
    and closed under meets, so folding the meet over the (never empty) set
    of common upper bounds yields the join.  Needs ``len(s)`` within the
    enumeration ceiling.
    """
    if len(s) != len(t):
        raise LengthMismatch(f"cannot join lengths {len(s)} and {len(t)}")
    uppers = [
        u for u in enumerate_universe(len(s), ceiling) if leq(s, u) and leq(t, u)
    ]
    return reduce(meet, uppers)


def excess_indices(l: PathLengthSequence) -> tuple[int, ...]:
    """Interior positions where a balancing move applies.

    A 1-based ``j`` qualifies when ``l_{j-1} < l_j == l_{j+1}`` and some
    component is at most ``l_j - 2``.  Empty exactly for the near-constant
    (bottom) sequence.
    """
    out = []
    for j in range(2, len(l)):
        value = l[j - 1]
        if l[j - 2] < value == l[j] and l.first <= value - 2:
            out.append(j)
    return tuple(out)


def balancing_step(l: PathLengthSequence, j: int) -> PathLengthSequence:
    """Apply the minimal balancing move at excess index ``j``.

    With ``i`` the last position whose depth is at most ``l_j - 2``: the
    leaf at ``i`` is split (one copy of ``l_i`` becomes two of ``l_i + 1``)
    and the first two copies of ``l_j`` merge into one ``l_j - 1``.  The
    result has the same length and is strictly more balanced.
    """
    if j not in excess_indices(l):
        raise NotAnExcessIndex(f"{j} is not an excess index of {l}")
    deep = l[j - 1]
    shallow = max(c for c in l if c <= deep - 2)
    parts = list(l.components)
    parts.remove(shallow)
    parts.extend((shallow + 1, shallow + 1))
    parts.remove(deep)
    parts.remove(deep)
    parts.append(deep - 1)
    parts.sort()
    return PathLengthSequence(tuple(parts))


def minimal_balancing_relation(
    n: int, ceiling: int = DEFAULT_CEILING
) -> tuple[BalancingStep, ...]:
    """Every balancing move available in the length-n universe.

    The reflexive-transitive closure of these steps is exactly the balance
    order, and the covering relation is contained (generally properly) in
    the step set.
    """
    steps = []
    for l in enumerate_universe(n, ceiling):
        for j in excess_indices(l):
            steps.append(BalancingStep(l, j, balancing_step(l, j)))
    steps.sort(key=lambda s: (s.source.components, s.excess_index))
    return tuple(steps)


def _lower_covers(u: PathLengthSequence) -> list[PathLengthSequence]:
    """The elements ``u`` covers: the maximal targets of its balancing steps.

    Every cover is a balancing step, and every step target lies below some
    cover of ``u``, so the covers are exactly the maximal step targets.
    Ordered by first excess index; empty for the bottom.
    """
    targets = list(dict.fromkeys(balancing_step(u, j) for j in excess_indices(u)))
    return [t for t in targets if not any(t != v and leq(t, v) for v in targets)]


@lru_cache(maxsize=None)
def _cover_edges(n: int) -> tuple[tuple[int, int], ...]:
    universe = _universe(n)
    return tuple(sorted(
        (universe.index(low), b)
        for b, u in enumerate(universe.elements)
        for low in _lower_covers(u)
    ))


def hasse(n: int, ceiling: int = DEFAULT_CEILING) -> LatticeUniverse:
    """The universe together with its covering edges (transitive reduction).

    Covers come from balancing steps (see ``_lower_covers``): O(n**2) order
    checks per element, so the cost is dominated by enumeration.  The
    definition-level reduction lives in
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
