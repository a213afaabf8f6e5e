"""Join-irreducibility of path-length sequences, three ways.

An element of a finite lattice is join-irreducible when it covers exactly
one element.  The lattice reads the lower covers off balancing steps, one
per distinct leaf that the steps split, so an element is join-irreducible
exactly when it has an excess index and all of its excess indices split
one leaf.  Besides that cover count this module implements two shortcut
characterizations:

* by balancing moves: the step at the first excess index must dominate the
  step at every other excess index;
* by shape: the sequence must split into a near-constant head, a strictly
  increasing middle and a near-constant tail, where a tail that starts with
  a repeated value must sit at least two levels below the preceding part.

The near-constant sequence (the lattice bottom) covers nothing and is
therefore never join-irreducible; both shortcut checkers guard for it
explicitly because their conditions would otherwise hold vacuously.

The cover count shares balancing steps with the first shortcut, so the
independent evidence for covers is ``covering_pairs_by_definition`` in
``imbalattice.oracle``, which the ``covering-within-balancing`` check
compares against.
"""

from __future__ import annotations

from typing import Iterable

from ._value import Value
from .lattice import LatticeUniverse, _balance, _excess, _lower_covers
from .sequences import PathLengthSequence, _leq

__all__ = [
    "NearConstancy",
    "SegmentDecomposition",
    "decompose_segments",
    "is_join_irreducible_by_balancing",
    "is_join_irreducible_by_covers",
    "is_join_irreducible_by_decomposition",
    "is_near_constant",
]


class NearConstancy(Value):
    """Whether a segment holds at most two distinct values differing by 1.

    ``values`` lists the distinct values present in sorted order (possibly
    more than two when the verdict is negative).
    """

    __slots__ = _fields = ("verdict", "values")
    verdict: bool
    values: tuple[int, ...]

    def __init__(self, verdict: bool, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "values", values)

    def __bool__(self) -> bool:
        return self.verdict


def is_near_constant(segment: Iterable[int]) -> NearConstancy:
    """Check near-constancy; empty and constant segments qualify."""
    values = tuple(sorted(set(segment)))
    verdict = len(values) <= 1 or (len(values) == 2 and values[1] - values[0] == 1)
    return NearConstancy(verdict, values)


class SegmentDecomposition(Value):
    """Canonical head/middle/tail split used by the shape characterization.

    ``head`` is the longest near-constant prefix, ``tail`` the longest
    near-constant suffix of what remains, ``middle`` the rest in between.
    Concatenating the three always reproduces the original components.
    """

    __slots__ = _fields = ("head", "middle", "tail")
    head: tuple[int, ...]
    middle: tuple[int, ...]
    tail: tuple[int, ...]

    def __init__(
        self, head: tuple[int, ...], middle: tuple[int, ...], tail: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "tail", tail)

    def concatenation(self) -> tuple[int, ...]:
        return self.head + self.middle + self.tail

    @property
    def ends_near_constant(self) -> bool:
        return bool(is_near_constant(self.head)) and bool(is_near_constant(self.tail))

    @property
    def middle_strictly_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.middle, self.middle[1:]))

    @property
    def tail_run_deep_enough(self) -> bool:
        """A non-constant tail opening with a repeated value must start at
        least two levels below the last component before it."""
        if len(self.tail) < 2 or self.tail[0] != self.tail[1]:
            return True
        if len(set(self.tail)) == 1:
            return True
        lead = self.head + self.middle
        return bool(lead) and self.tail[0] >= lead[-1] + 2

    def satisfies_all(self) -> bool:
        return (
            self.ends_near_constant
            and self.middle_strictly_increasing
            and self.tail_run_deep_enough
        )


def decompose_segments(l: PathLengthSequence) -> SegmentDecomposition:
    """Greedy head/middle/tail decomposition of a sequence.

    Sortedness makes near-constancy of a slice equivalent to its endpoints
    differing by at most 1, so both greedy scans are single passes.
    """
    comps = l.components
    n = len(comps)
    cut = 1
    while cut < n and comps[cut] - comps[0] <= 1:
        cut += 1
    head, rest = comps[:cut], comps[cut:]
    if rest:
        wcut = len(rest) - 1
        while wcut > 0 and rest[-1] - rest[wcut - 1] <= 1:
            wcut -= 1
        middle, tail = rest[:wcut], rest[wcut:]
    else:
        middle, tail = (), ()
    return SegmentDecomposition(head, middle, tail)


def is_join_irreducible_by_covers(l: PathLengthSequence, universe: LatticeUniverse) -> bool:
    """Literal definition: exactly one lower cover.

    The lower covers come one per distinct split leaf (see
    ``lattice._lower_covers``), so this holds exactly when ``l`` has an
    excess index and all of its excess indices split one leaf.  ``l`` must
    belong to ``universe`` (``ElementNotInUniverse`` otherwise).
    """
    universe.index(l)
    return len(_lower_covers(l.components)) == 1


def is_join_irreducible_by_balancing(l: PathLengthSequence) -> bool:
    """Shortcut via balancing moves.

    False for the bottom (no excess index); otherwise true exactly when the
    move at the first excess index dominates the move at every excess index.
    """
    c = l.components
    indices = _excess(c)
    if not indices:
        return False
    first_step = _balance(c, indices[0])
    return all(_leq(_balance(c, k), first_step) for k in indices[1:])


def is_join_irreducible_by_decomposition(l: PathLengthSequence) -> bool:
    """Shortcut via the greedy segment decomposition.

    False for near-constant sequences (the bottom); otherwise true exactly
    when the decomposition has a nonempty tail and satisfies all three
    shape conditions.
    """
    if is_near_constant(l.components):
        return False
    split = decompose_segments(l)
    return bool(split.tail) and split.satisfies_all()
