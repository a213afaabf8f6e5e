"""Path-length sequences and the exact balance-dominance order.

A path-length sequence is a nondecreasing list of nonnegative integer leaf
depths whose dyadic weights 2**-depth add up to exactly 1.  By Kraft's
theorem these are exactly the left-to-right depth profiles of full binary
trees, or equivalently the length profiles of complete binary prefix codes.

Sequences of equal length are compared through the partial sums of their
weight vectors: ``l`` is *more balanced* than ``h`` when every partial sum
of ``l``'s weights is at most the matching partial sum of ``h``'s.  The
comparison is a partial order; the flattest tree sits at the bottom and the
caterpillar tree at the top.

All arithmetic is exact.  Weights are rescaled to a common power of two and
handled as arbitrary-precision integers; floating point is never used.
``_weights`` is their one source (``scaled_partial_sums`` and the
canonical code in ``imbalattice.trees``); only the early-exit order test
``_leq`` adds them inline.  The Kraft check needs no weights: it counts
the leaves at each depth and carries half of each level's nodes to the
level above, from the deepest leaf to the root.  ``_VERDICTS`` maps
``_leq``'s two one-way answers to an ``OrderVerdict``.  Every value here is
immutable and every function pure, so the module is safe for unrestricted
concurrent use.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import accumulate, repeat
from operator import index as _as_int, le, rshift
from typing import Iterable, Iterator

from ._value import Value
from .errors import (
    KraftSumNotOne,
    LengthMismatch,
    NegativeDepth,
    NotSorted,
    ScaleTooSmall,
    SequenceError,
    short_components,
)

__all__ = [
    "OrderVerdict",
    "PathLengthSequence",
    "ScaledPartialSums",
    "compare",
    "format_sequence",
    "leq",
    "parse_components",
    "scaled_partial_sums",
    "suffix_length",
    "validate",
]


class PathLengthSequence(Value):
    """Validated leaf-depth profile of a full binary tree.

    Construction rejects anything that is not a nondecreasing sequence of
    nonnegative integers with Kraft sum exactly 1, so every instance in
    existence satisfies the invariants.  Instances are immutable, hashable
    and compare equal exactly when their components do.
    """

    __slots__ = _fields = ("components",)
    components: tuple[int, ...]

    def __init__(self, components: tuple[int, ...]) -> None:
        object.__setattr__(self, "components", components)
        self.__post_init__()

    # Equality and hashing sit inside every lattice fold and verify table,
    # so they read the one field directly; the hash is the field tuple's.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.components,))

    def __post_init__(self) -> None:
        components = tuple(map(_as_int, self.components))
        object.__setattr__(self, "components", components)
        if not components:
            raise SequenceError("a path-length sequence has at least one component")
        if min(components) < 0:
            raise NegativeDepth(f"negative leaf depth in {short_components(components)}")
        if not all(map(le, components, components[1:])):
            raise NotSorted(
                f"components must be nondecreasing, got {short_components(components)}"
            )
        scale = components[-1]
        # Kraft equality caps the depth at n - 1; checking that first keeps
        # the shifts below bounded by the input length.
        if scale >= len(components):
            raise KraftSumNotOne(components)
        # Pair the nodes off level by level from the deepest leaf up:
        # ``pending`` counts the nodes at ``level``, and climbing the ``gap``
        # levels to the next leaf's depth halves them ``gap`` times, so they
        # must be a multiple of 2**gap.  The weights sum to 1 exactly when
        # the nodes at the shallowest leaf's level pair off into the root
        # alone.  O(n) in all: the gaps add up to less than n.
        pending, level = 0, scale
        for depth in reversed(components):
            if depth != level:
                gap = level - depth
                if pending & ((1 << gap) - 1):
                    raise KraftSumNotOne(components)
                pending >>= gap
                level = depth
            pending += 1
        if pending != 1 << level:
            raise KraftSumNotOne(components)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def first(self) -> int:
        return self.components[0]

    @property
    def last(self) -> int:
        return self.components[-1]

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __str__(self) -> str:
        return format_sequence(self)


class OrderVerdict(Enum):
    """Outcome of comparing two equal-length sequences in the balance order."""

    EQUAL = "equal"
    MORE_BALANCED = "more-balanced"
    LESS_BALANCED = "less-balanced"
    INCOMPARABLE = "incomparable"


# (first's partial sums at most second's, and the converse) -> verdict
_VERDICTS = {
    (True, True): OrderVerdict.EQUAL,
    (True, False): OrderVerdict.MORE_BALANCED,
    (False, True): OrderVerdict.LESS_BALANCED,
    (False, False): OrderVerdict.INCOMPARABLE,
}


class ScaledPartialSums(Value):
    """Exact witness for an order comparison.

    ``sums[i]`` is the integer ``sum(2**(scale_exponent - l_j) for j <= i)``.
    The entries are strictly increasing and the final entry equals
    ``2**scale_exponent`` (that is the Kraft equality).
    """

    __slots__ = _fields = ("scale_exponent", "sums")
    scale_exponent: int
    sums: tuple[int, ...]

    def __init__(self, scale_exponent: int, sums: tuple[int, ...]) -> None:
        object.__setattr__(self, "scale_exponent", scale_exponent)
        object.__setattr__(self, "sums", sums)


def validate(components: Iterable[int]) -> PathLengthSequence:
    """Validate an integer sequence as a path-length sequence.

    Raises ``NegativeDepth``, ``NotSorted`` or ``KraftSumNotOne`` (which
    carries the exact dyadic sum) when the input is not one.
    """
    return PathLengthSequence(tuple(components))


def _integer(token: str) -> int:
    """One integer of the shared textual syntax: ASCII digits with an
    optional leading ``-``.  Rejects what ``int`` would also take: other
    Unicode digits (fullwidth, superscript), ``+``, spaces and underscores.
    """
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_components(text: str) -> tuple[int, ...]:
    """Parse the shared textual syntax: comma-separated decimal integers.

    Each integer is ASCII digits with an optional leading ``-``; other
    Unicode digits, such as fullwidth or superscript ones, are rejected.
    Only parses; semantic validation is a separate step (``validate``).
    """
    if not text:
        raise ValueError("empty sequence text")
    try:
        return tuple(map(_integer, text.split(",")))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None


def format_sequence(l: PathLengthSequence) -> str:
    """Render in the shared textual syntax, e.g. ``1,2,3,4,4``."""
    return ",".join(str(c) for c in l.components)


def _suffix(c: tuple[int, ...]) -> int:
    """Number of equal trailing entries of a sorted component tuple."""
    return len(c) - bisect_left(c, c[-1])


def suffix_length(l: PathLengthSequence) -> int:
    """Number of equal trailing components (even for every n >= 2)."""
    return _suffix(l.components)


def _weights(c: tuple[int, ...], scale: int) -> Iterator[int]:
    """The weights ``2**(scale - depth)`` of a component tuple, lazily;
    ``scale`` is at least ``c[-1]``."""
    return map(rshift, repeat(1 << scale), c)


def _leq(x: tuple[int, ...], y: tuple[int, ...], scale: int | None = None) -> bool:
    """The balance order on equal-length component tuples.

    Partial sums are taken at ``2**scale``, by default the larger last
    component; any larger scale gives the same answer.  Stops at the first
    partial sum of ``x`` that exceeds the matching one of ``y``.

    The weights are added inline, not drawn from ``_weights``: ``join``
    calls this ~1,020 times per n = 14 pair, and an ``accumulate`` or
    generator form over ``_weights`` is markedly slower per call.
    """
    if scale is None:
        scale = max(x[-1], y[-1])
    a = b = 0
    for p, q in zip(x, y):
        a += 1 << (scale - p)
        b += 1 << (scale - q)
        if a > b:
            return False
    return True


def scaled_partial_sums(l: PathLengthSequence, scale: int | None = None) -> ScaledPartialSums:
    """Partial sums of the weights 2**(scale - depth) as exact integers.

    ``scale`` defaults to ``last l`` and must not be smaller than it.
    """
    exponent = l.last if scale is None else _as_int(scale)
    if exponent < l.last:
        raise ScaleTooSmall(f"scale {exponent} is below last component {l.last}")
    sums = tuple(accumulate(_weights(l.components, exponent)))
    return ScaledPartialSums(exponent, sums)


def compare(l: PathLengthSequence, h: PathLengthSequence, scale: int | None = None) -> OrderVerdict:
    """Compare two equal-length sequences in the balance-dominance order.

    The verdict is computed from partial sums at a common power-of-two
    scale; any scale at least ``max(last l, last h)`` gives the same answer
    (the default uses exactly that maximum).
    """
    if len(l) != len(h):
        raise LengthMismatch(f"cannot compare lengths {len(l)} and {len(h)}")
    if scale is None:
        scale = max(l.last, h.last)
    else:
        scale = _as_int(scale)
        for s in (l, h):
            if scale < s.last:
                raise ScaleTooSmall(f"scale {scale} is below last component {s.last}")
    x, y = l.components, h.components
    return _VERDICTS[_leq(x, y, scale), _leq(y, x, scale)]


def leq(l: PathLengthSequence, h: PathLengthSequence) -> bool:
    """True when ``l`` is at least as balanced as ``h`` (equality included).

    Equivalent to ``compare(l, h) in {EQUAL, MORE_BALANCED}`` but with an
    early exit, since this predicate sits inside every lattice loop.
    """
    if len(l) != len(h):
        raise LengthMismatch(f"cannot compare lengths {len(l)} and {len(h)}")
    return _leq(l.components, h.components)
