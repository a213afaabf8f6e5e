"""Leaf splitting and merging: expansions and the contraction.

Expanding position ``i`` replaces the depth ``l_i`` by two copies of
``l_i + 1`` (splitting that leaf into a cherry).  The result is kept in
canonical nondecreasing order, i.e. expansion acts on the underlying
multiset of depths.  The upper expansion splits the last leaf; the lower
expansion splits the shallowest leaf of the trailing run (position
``max(1, n - suf l)``), which is defined even for constant sequences, where
the two coincide.

Contraction is the inverse-style move: it merges the two deepest leaves and
re-deepens the run boundary, producing an (n-1)-component sequence that
sandwiches the original between its own lower and upper expansions.

The moves themselves run on plain component tuples (``_expand``,
``_contract``), which keep sortedness and the Kraft sum by construction;
the public functions wrap their one result in a validated
``PathLengthSequence``.  Pure functions over immutable values throughout.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import PositionOutOfRange, SingletonSequence
from .sequences import PathLengthSequence, _suffix

__all__ = [
    "contraction",
    "expansion_at",
    "lower_expansion",
    "upper_expansion",
]


def _expand(c: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Split the entry at 0-based index ``i`` of a sorted component tuple.

    The two copies of ``d + 1`` go after the rest of ``d``'s run, so the
    result stays sorted without a sort.  Every copy of ``d`` gives the same
    result.
    """
    d = c[i]
    j = bisect_right(c, d, i + 1)
    return c[:i] + c[i + 1 : j] + (d + 1, d + 1) + c[j:]


def _contract(c: tuple[int, ...]) -> tuple[int, ...]:
    """Contraction of a component tuple with at least two entries."""
    cut = len(c) - _suffix(c)
    return c[:cut] + (c[cut] - 1,) + (c[-1],) * (len(c) - cut - 2)


def _lower_index(c: tuple[int, ...]) -> int:
    """0-based index of the lower expansion: ``max(1, n - suf)`` less one."""
    return max(0, len(c) - _suffix(c) - 1)


def expansion_at(l: PathLengthSequence, i: int) -> PathLengthSequence:
    """Split the leaf at 1-based position ``i``; result has n+1 components."""
    if not 1 <= i <= len(l):
        raise PositionOutOfRange(f"position {i} outside 1..{len(l)}")
    return PathLengthSequence(_expand(l.components, i - 1))


def upper_expansion(l: PathLengthSequence) -> PathLengthSequence:
    """Expansion in the last position (split the deepest, rightmost leaf)."""
    return expansion_at(l, len(l))


def lower_expansion(l: PathLengthSequence) -> PathLengthSequence:
    """Expansion in position ``max(1, n - suf l)``.

    For a constant sequence this is position 1 and equals the upper
    expansion; a sequence is constant exactly when the two coincide.
    """
    return expansion_at(l, _lower_index(l.components) + 1)


def contraction(l: PathLengthSequence) -> PathLengthSequence:
    """Merge the deepest structure into an (n-1)-component sequence.

    With ``k = suf l`` the result is ``(l_1, .., l_{n-k}, l_{n-k+1} - 1,
    l_n, .., l_n)`` with the last value repeated ``k - 2`` times.  The
    original is recovered by re-expanding position ``n - k + 1``, and is
    sandwiched between the contraction's lower and upper expansions.
    """
    if len(l) == 1:
        raise SingletonSequence("cannot contract a single-component sequence")
    return PathLengthSequence(_contract(l.components))
