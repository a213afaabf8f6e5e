"""Brute-force reference implementations used only for verification.

Nothing here is a production path.  The point of this module is to share as
little as possible with the fast implementations so that agreement between
the two is evidence rather than tautology: order checks recompute partial
sums straight from the definition as exact integers, and enumeration
searches dyadic partitions of 1 with an integer budget instead of
descending a table of leaf counts.  Both count in one unit, ``2**-(n-1)``
for length ``n``, computed here rather than borrowed from the order code.
Meets and joins are found by one exhaustive scan over a universe, and
cover pairs come from a cubic transitive reduction of the definition-level
order instead of from balancing steps.

``closure_equals_order`` is the one deliberate exception: it consumes the
minimal balancing relation (the artifact under test) and checks that its
reflexive-transitive closure, computed by plain relational squaring,
reproduces the order.
"""

from __future__ import annotations

from functools import lru_cache
from operator import le

from ._value import Value
from .errors import NotALattice
from .lattice import DEFAULT_CEILING, LatticeUniverse, _check_size, minimal_balancing_relation
from .sequences import PathLengthSequence

__all__ = [
    "PropertyReport",
    "closure_equals_order",
    "covering_pairs_by_definition",
    "enumerate_by_partition",
    "join_bruteforce",
    "leq_by_definition",
    "meet_bruteforce",
]


class PropertyReport(Value):
    """Outcome of one verification run: a property name, the size it was
    checked up to, a pass/fail status and a witness for failures."""

    __slots__ = _fields = ("property", "n", "status", "witness")
    property: str
    n: int
    status: str
    witness: str | None

    def __init__(self, property: str, n: int, status: str, witness: str | None = None) -> None:
        object.__setattr__(self, "property", property)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"property": self.property, "n": self.n, "status": self.status,
             "witness": self.witness},
            separators=(", ", ": "),
        )

    def __str__(self) -> str:
        text = f"{self.status} {self.property} (n={self.n})"
        if self.witness:
            text += f" -- {self.witness}"
        return text


# Holds every element of the universes up to n = 16 (3712 in all) at once.
_PARTIAL_SUMS_CACHE_SIZE = 4096


@lru_cache(maxsize=_PARTIAL_SUMS_CACHE_SIZE)
def _scaled_sums(components: tuple[int, ...]) -> tuple[int, ...]:
    """The partial sums of the weights ``2**-depth``, each an exact integer
    count of ``2**-(n-1)`` units, with ``n = len(components)``: no leaf of a
    length-``n`` sequence is deeper than ``n - 1``.  This is the unit
    ``enumerate_by_partition`` budgets in."""
    deepest = len(components) - 1
    sums = []
    acc = 0
    for depth in components:
        acc += 1 << (deepest - depth)
        sums.append(acc)
    return tuple(sums)


def leq_by_definition(l: PathLengthSequence, h: PathLengthSequence) -> bool:
    """Definition-level order check via exact integer partial sums.

    Two sequences of one length ``n`` count their sums in the same unit,
    ``2**-(n-1)``, so the comparison is componentwise as they stand.
    """
    if len(l.components) != len(h.components):
        return False
    return all(map(le, _scaled_sums(l.components), _scaled_sums(h.components)))


def enumerate_by_partition(n: int, ceiling: int = DEFAULT_CEILING) -> tuple[PathLengthSequence, ...]:
    """All dyadic partitions of 1 into ``n`` nondecreasing depths.

    Depth-first search with an exact integer budget, counted in units of
    ``2**-(n-1)``: no leaf of a length-``n`` partition is deeper than
    ``n - 1``, so every weight is a whole number of units.  A branch is
    pruned as soon as the remaining components cannot reach the remaining
    budget even at the current (largest allowed) weight.
    """
    _check_size(n, ceiling)
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []
    deepest = n - 1

    def extend(budget: int, remaining: int, min_depth: int) -> None:
        if remaining == 0:
            if budget == 0:
                found.append(tuple(prefix))
            return
        if budget <= 0:
            return
        depth = min_depth
        # A positive budget left after p leaves is at least 2**-p, so the
        # pruning test holds only up to depth p + log2(remaining) <= n - 1;
        # the depth bound just keeps the shifts nonnegative.
        while depth <= deepest and remaining << (deepest - depth) >= budget:
            weight = 1 << (deepest - depth)
            if weight <= budget:
                prefix.append(depth)
                extend(budget - weight, remaining - 1, depth)
                prefix.pop()
            depth += 1

    extend(1 << deepest, n, 0)
    return tuple(PathLengthSequence(c) for c in sorted(found))


def covering_pairs_by_definition(
    n: int, ceiling: int = DEFAULT_CEILING
) -> tuple[tuple[PathLengthSequence, PathLengthSequence], ...]:
    """Cover pairs ``(lower, upper)`` by transitive reduction of the order.

    ``lower`` is covered by ``upper`` when ``lower < upper`` and no element
    lies strictly between them; cubic in the universe size.  Pairs come in
    the order of ``imbalattice.lattice.covering_pairs``.
    """
    elements = enumerate_by_partition(n, ceiling)
    m = len(elements)
    below = [
        [a != b and leq_by_definition(elements[a], elements[b]) for b in range(m)]
        for a in range(m)
    ]
    return tuple(
        (elements[a], elements[b])
        for a in range(m)
        for b in range(m)
        if below[a][b] and not any(below[a][c] and below[c][b] for c in range(m))
    )


def meet_bruteforce(
    s: PathLengthSequence, t: PathLengthSequence, universe: LatticeUniverse
) -> PathLengthSequence:
    """Unique maximum of the common lower bounds, by exhaustive scan."""
    return _unique_bound(s, t, universe, upper=False)


def join_bruteforce(
    s: PathLengthSequence, t: PathLengthSequence, universe: LatticeUniverse
) -> PathLengthSequence:
    """Unique minimum of the common upper bounds, by exhaustive scan."""
    return _unique_bound(s, t, universe, upper=True)


def _unique_bound(
    s: PathLengthSequence, t: PathLengthSequence, universe: LatticeUniverse, upper: bool
) -> PathLengthSequence:
    """The common bound of ``s`` and ``t`` that every other common bound lies
    beyond: below it for lower bounds, above it for upper bounds."""
    universe.index(s)
    universe.index(t)
    beyond = (lambda x, y: leq_by_definition(y, x)) if upper else leq_by_definition
    bounds = [u for u in universe if beyond(u, s) and beyond(u, t)]
    extreme = [m for m in bounds if all(beyond(u, m) for u in bounds)]
    if len(extreme) != 1:
        side, end = ("upper", "minimum") if upper else ("lower", "maximum")
        raise NotALattice(
            f"{side} bounds of {s} and {t} have no unique {end}", pair=(s, t), bounds=tuple(bounds)
        )
    return extreme[0]


def closure_equals_order(n: int, ceiling: int = DEFAULT_CEILING) -> PropertyReport:
    """Does the closure of the minimal balancing relation equal the order?

    The closure is computed by iterative relational squaring over the
    independently enumerated universe; the order side uses the integer
    definition-level check.  Discrepancy pairs, if any, become the witness.
    """
    elements = enumerate_by_partition(n, ceiling)
    position = {el.components: i for i, el in enumerate(elements)}
    relation = {(i, i) for i in range(len(elements))}
    for step in minimal_balancing_relation(n, ceiling):
        relation.add((position[step.target.components], position[step.source.components]))
    while True:
        composed = {(a, d) for a, b in relation for c, d in relation if b == c}
        squared = relation | composed
        if squared == relation:
            break
        relation = squared
    mismatches = []
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if ((i, j) in relation) != leq_by_definition(a, b):
                mismatches.append(f"{a} vs {b}")
    if mismatches:
        return PropertyReport(
            "closure-equals-order", n, "fail", "; ".join(mismatches[:5])
        )
    return PropertyReport("closure-equals-order", n, "pass")
