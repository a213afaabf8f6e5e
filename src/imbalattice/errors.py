"""Exception types shared across the package."""

from __future__ import annotations

from functools import cached_property

__all__ = [
    "ElementNotInUniverse",
    "ImbalatticeError",
    "KraftSumNotOne",
    "LengthMismatch",
    "MalformedTree",
    "NegativeDepth",
    "NotALattice",
    "NotAnExcessIndex",
    "NotSorted",
    "PositionOutOfRange",
    "ResourceLimit",
    "ScaleTooSmall",
    "SequenceError",
    "SingletonSequence",
]

SHOWN_COMPONENTS = 8


def short_components(components) -> str:
    """Render components for an error message in bounded length.

    Long sequences keep their first and last few entries, and integers too
    large to print usefully show only their bit length.
    """
    def show(c) -> str:
        return str(c) if abs(c).bit_length() <= 64 else f"<{c.bit_length()}-bit int>"

    parts = tuple(components)
    if len(parts) <= SHOWN_COMPONENTS:
        shown = [show(c) for c in parts]
    else:
        shown = [show(c) for c in parts[: SHOWN_COMPONENTS - 2]]
        shown += [f"... {len(parts) - SHOWN_COMPONENTS + 1} more ...", show(parts[-1])]
    return "(" + ", ".join(shown) + ")"


class ImbalatticeError(Exception):
    """Base class for every error raised by this package."""


class SequenceError(ImbalatticeError, ValueError):
    """A component list is not a valid path-length sequence."""


class NegativeDepth(SequenceError):
    pass


class NotSorted(SequenceError):
    pass


class KraftSumNotOne(SequenceError):
    """The dyadic weights 2**-depth do not add up to exactly 1.

    ``kraft_sum`` (the exact offending sum) and ``deficit`` (its deviation
    from 1) are ``fractions.Fraction`` values computed (and ``fractions``
    imported) on first access, so rejecting a huge depth costs nothing
    until a caller asks for them.  The message is one short line; it quotes
    the sum only when that is small.
    A depth above n - 1 alone rules out a sum of 1, and the message says so.
    """

    def __init__(self, components):
        self.components = tuple(components)
        scale = max(self.components)
        if scale >= len(self.components):
            reason = f"cannot sum to 1: a depth exceeds n - 1 = {len(self.components) - 1}"
        elif scale <= 64:
            reason = f"sum to {self.kraft_sum}, not 1 (off by {self.deficit})"
        else:
            reason = "do not sum to 1"
        super().__init__(f"weights of {short_components(self.components)} {reason}")

    @cached_property
    def kraft_sum(self) -> Fraction:
        from fractions import Fraction

        scale = max(self.components)
        return Fraction(sum(1 << (scale - c) for c in self.components), 1 << scale)

    @property
    def deficit(self) -> Fraction:
        return 1 - self.kraft_sum


class LengthMismatch(ImbalatticeError, ValueError):
    """Two sequences of different lengths were compared or combined."""


class ScaleTooSmall(ImbalatticeError, ValueError):
    """Requested scale exponent is below the largest depth."""


class PositionOutOfRange(ImbalatticeError, IndexError):
    """Expansion position outside 1..n."""


class SingletonSequence(ImbalatticeError, ValueError):
    """Contraction needs at least two components."""


class ResourceLimit(ImbalatticeError, RuntimeError):
    """The requested size exceeds the configured enumeration ceiling."""


class NotAnExcessIndex(ImbalatticeError, ValueError):
    pass


class ElementNotInUniverse(ImbalatticeError, ValueError):
    pass


class MalformedTree(ImbalatticeError, ValueError):
    """A tree node has a child count other than zero or two."""


class NotALattice(ImbalatticeError, RuntimeError):
    """A bound set lacked a unique extreme element.

    This would falsify the lattice structure and must never fire for valid
    inputs; the offending pair and its bound set are attached as evidence.
    """

    def __init__(self, message: str, pair=None, bounds=None):
        super().__init__(message)
        self.pair = pair
        self.bounds = bounds
