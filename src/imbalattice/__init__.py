"""Exact algorithms on the imbalance lattice of binary-tree path-length
sequences.

The package covers the full pipeline: validating Kraft-exact depth
sequences, comparing them in the balance-dominance order, splitting and
merging leaves, counting and enumerating each fixed-length universe with
its meet, join and covering structure, the balancing moves whose closure
generates the order, three independent join-irreducibility tests, canonical trees and
prefix codes, and a brute-force oracle layer for verifying all of it.

Everything computes with arbitrary-precision integers; there is no
floating point anywhere.

The public names live in each module's ``__all__``; this package
re-exports them all and joins those lists into its own ``__all__``.
"""

from .errors import *
from .sequences import *
from .transforms import *
from .lattice import *
from .irreducibility import *
from .oracle import *
from .trees import *
from .verify import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + sequences.__all__
    + transforms.__all__
    + lattice.__all__
    + irreducibility.__all__
    + oracle.__all__
    + trees.__all__
    + verify.__all__
)
