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
"""

from .errors import (
    ElementNotInUniverse,
    ImbalatticeError,
    KraftSumNotOne,
    LengthMismatch,
    MalformedTree,
    NegativeDepth,
    NotALattice,
    NotAnExcessIndex,
    NotSorted,
    PositionOutOfRange,
    ResourceLimit,
    ScaleTooSmall,
    SequenceError,
    SingletonSequence,
)
from .irreducibility import (
    NearConstancy,
    SegmentDecomposition,
    decompose_segments,
    is_join_irreducible_by_balancing,
    is_join_irreducible_by_covers,
    is_join_irreducible_by_decomposition,
    is_near_constant,
)
from .lattice import (
    DEFAULT_CEILING,
    BalancingStep,
    LatticeUniverse,
    balancing_step,
    bottom,
    count_universe,
    covering_pairs,
    enumerate_universe,
    excess_indices,
    hasse,
    hasse_dot,
    hasse_json,
    join,
    meet,
    minimal_balancing_relation,
    top,
)
from .oracle import (
    PropertyReport,
    closure_equals_order,
    covering_pairs_by_definition,
    enumerate_by_partition,
    join_bruteforce,
    leq_by_definition,
    meet_bruteforce,
)
from .sequences import (
    OrderVerdict,
    PathLengthSequence,
    ScaledPartialSums,
    compare,
    format_sequence,
    leq,
    parse_components,
    scaled_partial_sums,
    suffix_length,
    validate,
)
from .transforms import (
    contraction,
    expansion_at,
    lower_expansion,
    upper_expansion,
)
from .trees import (
    CodeTree,
    canonical_code,
    leaf_codewords,
    nodes_within_depth,
    sequence_from_tree,
    sum_components,
    tree_ascii,
    tree_dot,
    tree_from_sequence,
)
from .verify import CHECKS, run_checks

__version__ = "0.1.0"

__all__ = [
    # domain types
    "BalancingStep",
    "CodeTree",
    "LatticeUniverse",
    "NearConstancy",
    "OrderVerdict",
    "PathLengthSequence",
    "PropertyReport",
    "ScaledPartialSums",
    "SegmentDecomposition",
    # errors
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
    # operations
    "balancing_step",
    "bottom",
    "canonical_code",
    "closure_equals_order",
    "compare",
    "contraction",
    "count_universe",
    "covering_pairs",
    "covering_pairs_by_definition",
    "decompose_segments",
    "enumerate_by_partition",
    "enumerate_universe",
    "excess_indices",
    "expansion_at",
    "format_sequence",
    "hasse",
    "hasse_dot",
    "hasse_json",
    "is_join_irreducible_by_balancing",
    "is_join_irreducible_by_covers",
    "is_join_irreducible_by_decomposition",
    "is_near_constant",
    "join",
    "join_bruteforce",
    "leaf_codewords",
    "leq",
    "leq_by_definition",
    "lower_expansion",
    "meet",
    "meet_bruteforce",
    "minimal_balancing_relation",
    "nodes_within_depth",
    "parse_components",
    "run_checks",
    "scaled_partial_sums",
    "sequence_from_tree",
    "suffix_length",
    "sum_components",
    "top",
    "tree_ascii",
    "tree_dot",
    "tree_from_sequence",
    "upper_expansion",
    "validate",
    # tuning
    "CHECKS",
    "DEFAULT_CEILING",
]
