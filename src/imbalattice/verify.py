"""Named, machine-checkable law suite over the whole library.

Each check takes one ``SizeMemo`` (a length-n universe plus memos of the
calls several checks share) and returns the witness of the first
counterexample it finds there, or ``None`` when the law holds.
``run_checks`` owns the size sweep: it refuses sizes beyond the ceiling,
then walks n = 1, 2, ... up to the requested maximum, sizes outermost.
At each size it builds one ``SizeMemo``, runs every check that has no
witness yet in registry order, and drops the memo before the next size.
For that one size the memo caches ``meet`` and ``join`` per ordered pair,
the oracle's bounds per pair, both expansions, the contraction and cover
irreducibility per element, and once each the ``leq`` bitmasks, the pairs
``a <= b`` read off them and the balancing steps.  The pair sweeps walk
that list, so a ``leq`` that raises reaches each of them through the
bitmasks.  A cache never stores an exception and calls this module's
globals at call time, so a check sees the same values, errors and patched
functions, stops at the same pair and gives the same witness as alone.
Reports are ``PropertyReport``s named by the registry keys, the stable
names the command line accepts, and always come in registry order, so
output is deterministic no matter how the checks are scheduled.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations_with_replacement, product
from operator import le
from typing import Callable, Iterable

from .errors import ImbalatticeError
from .irreducibility import (
    decompose_segments,
    is_join_irreducible_by_balancing,
    is_join_irreducible_by_covers,
    is_join_irreducible_by_decomposition,
    is_near_constant,
)
from .lattice import (
    DEFAULT_CEILING,
    LatticeUniverse,
    _check_size,
    _lower_covers,
    bottom,
    covering_pairs,
    balancing_step,
    count_universe,
    enumerate_universe,
    excess_indices,
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
    meet_bruteforce,
)
from .sequences import (
    _VERDICTS,
    compare,
    leq,
    scaled_partial_sums,
    suffix_length,
)
from .transforms import contraction, expansion_at, lower_expansion, upper_expansion
from .trees import (
    canonical_code,
    leaf_codewords,
    nodes_within_depth,
    sequence_from_tree,
    sum_components,
    tree_from_sequence,
)

__all__ = ["CHECKS", "run_checks"]

class SizeMemo:
    """One size of the law suite: its universe and memos of the calls that
    several checks make.

    Cached with ``functools``: ``meet`` and ``join`` per ordered pair, the
    oracle's ``bounds`` per pair, ``lower_expansion``, ``upper_expansion``,
    ``contraction`` and ``irreducible`` (by covers) per argument, and once
    per size ``balancing_steps``, ``order_masks`` and the ``ordered_pairs``
    read off them.  ``run_checks`` builds one per size and drops it when
    that size is done.  No cache stores an exception, so every check that
    repeats a failing call gets the error itself, and a ``leq`` that raises
    reaches every check that reads the masks or the pairs.  The wrappers
    look the library up as this module's globals at call time, so a
    patched global is seen, and close over the universe, not the memo, so
    the memo is freed as soon as it is dropped.  Call them positionally:
    ``functools.cache`` keys keyword calls apart.
    """

    def __init__(self, universe: LatticeUniverse) -> None:
        self.universe = universe
        self.n = n = universe.n
        self.elements = universe.elements
        self.meet = cache(lambda s, t: meet(s, t))
        self.join = cache(lambda s, t: join(s, t, n))
        # the oracle's (meet_bruteforce, join_bruteforce); raises
        # NotALattice when either bound is not unique
        self.bounds = cache(
            lambda a, b: (meet_bruteforce(a, b, universe), join_bruteforce(a, b, universe))
        )
        self.lower_expansion = cache(lambda l: lower_expansion(l))
        self.upper_expansion = cache(lambda l: upper_expansion(l))
        self.contraction = cache(lambda l: contraction(l))
        self.irreducible = cache(lambda l: is_join_irreducible_by_covers(l))
        self.balancing_steps = cache(lambda: minimal_balancing_relation(n, n))

    @cached_property
    def order_masks(self) -> tuple[list[int], list[int]]:
        """Per element index, the bitmasks of the indices below it (``down``)
        and above it (``up``), from one public ``leq`` call per ordered pair."""
        pool = self.elements
        down = [0] * len(pool)
        up = [0] * len(pool)
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                if leq(a, b):
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        return down, up

    @cached_property
    def ordered_pairs(self) -> list[tuple]:
        """Every ``(a, b)`` with ``a <= b``, in ``product`` order."""
        pool, (_, up) = self.elements, self.order_masks
        return [(a, b) for i, a in enumerate(pool) for j, b in enumerate(pool) if up[i] >> j & 1]


Check = Callable[[SizeMemo], "str | None"]


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _check_partial_order_laws(size: SizeMemo) -> str | None:
    pool = size.elements
    _, up = size.order_masks
    for i, a in enumerate(pool):
        if not up[i] >> i & 1:
            return f"not reflexive at {a}"
    for (i, a), (j, b) in product(enumerate(pool), repeat=2):
        if i != j and up[i] >> j & 1 and up[j] >> i & 1:
            return f"not antisymmetric: {a}, {b}"
    # transitive: whatever lies above b also lies above every a <= b
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            escaped = up[j] & ~up[i]
            if up[i] >> j & 1 and escaped:
                return f"not transitive: {a}, {b}, {pool[_lowest_bit(escaped)]}"
    return None


def _check_last_suffix_monotonicity(size: SizeMemo) -> str | None:
    for a, b in size.ordered_pairs:
        if a.last > b.last:
            return f"last {a} > last {b}"
        if a.last == b.last and suffix_length(a) > suffix_length(b):
            return f"suf {a} > suf {b}"
    return None


def _check_scale_independence(size: SizeMemo) -> str | None:
    pool = size.elements
    partial_sums = cache(lambda i, scale: scaled_partial_sums(pool[i], scale).sums)
    for (i, a), (j, b) in product(enumerate(pool), repeat=2):
        verdict = compare(a, b)
        base = max(a.last, b.last)
        for scale in (base, base + 1, base + 5):
            if compare(a, b, scale=scale) != verdict:
                return f"verdict varies: {a} vs {b}"
            x = partial_sums(i, scale)
            y = partial_sums(j, scale)
            if _VERDICTS[all(map(le, x, y)), all(map(le, y, x))] is not verdict:
                return f"partial sums disagree at scale {scale}: {a} vs {b}"
    return None


def _check_expansion_monotonicity(size: SizeMemo) -> str | None:
    for a, b in size.ordered_pairs:
        if not leq(size.lower_expansion(a), size.lower_expansion(b)):
            return f"lower fails: {a}, {b}"
        if not leq(size.upper_expansion(a), size.upper_expansion(b)):
            return f"upper fails: {a}, {b}"
    return None


def _check_expansion_coincidence(size: SizeMemo) -> str | None:
    for l in size.elements:
        constant = len(set(l.components)) == 1
        if constant != (size.lower_expansion(l) == size.upper_expansion(l)):
            return f"at {l}"
    return None


def _check_upper_lower_expansion(size: SizeMemo) -> str | None:
    for a, b in size.ordered_pairs:
        if a.last < b.last and not leq(size.upper_expansion(a), size.lower_expansion(b)):
            return f"{a} vs {b}"
    return None


def _check_contraction_sandwich(size: SizeMemo) -> str | None:
    if size.n == 1:
        return None  # a single leaf has no contraction
    for l in size.elements:
        squeezed = size.contraction(l)
        if not (leq(size.lower_expansion(squeezed), l) and leq(l, size.upper_expansion(squeezed))):
            return f"at {l}"
    return None


def _check_contraction_round_trip(size: SizeMemo) -> str | None:
    if size.n == 1:
        return None  # a single leaf has no contraction
    for l in size.elements:
        merged_position = size.n - suffix_length(l) + 1
        if expansion_at(size.contraction(l), merged_position) != l:
            return f"at {l}"
    return None


def _check_enumeration_oracle(size: SizeMemo) -> str | None:
    n = size.n
    fast = size.elements
    slow = enumerate_by_partition(n, n)
    if set(fast) != set(slow):
        extra = sorted(x.components for x in set(fast) ^ set(slow))
        return f"n={n} differs at {extra[:3]}"
    # The lengths also catch duplicates, which the sets hide.
    count = count_universe(n, n)
    for length in (len(slow), len(fast)):
        if count != length:
            return f"n={n} count {count} but {length} elements"
    return None


def _check_bottom_top_extremes(size: SizeMemo) -> str | None:
    n, pool = size.n, size.elements
    down, up = size.order_masks
    everything = (1 << len(pool)) - 1
    least = [u for u, mask in zip(pool, up) if mask == everything]
    greatest = [u for u, mask in zip(pool, down) if mask == everything]
    if least != [bottom(n)]:
        return f"bottom({n}) != {least}"
    if greatest != [top(n)]:
        return f"top({n}) != {greatest}"
    return None


def _check_excess_iff_not_bottom(size: SizeMemo) -> str | None:
    for l in size.elements:
        no_excess = not excess_indices(l)
        flat = bool(is_near_constant(l.components))
        if not (no_excess == flat == (l == bottom(size.n))):
            return f"at {l}"
    return None


def _check_lattice_bounds_unique(size: SizeMemo) -> str | None:
    # the brute-force bounds are symmetric, so each unordered pair once
    for a, b in combinations_with_replacement(size.elements, 2):
        size.bounds(a, b)  # raises NotALattice on failure
    return None


def _check_meet_oracle_agreement(size: SizeMemo) -> str | None:
    for a, b in combinations_with_replacement(size.elements, 2):
        low, high = size.bounds(a, b)
        for s, t in ((a, b),) if a == b else ((a, b), (b, a)):
            if size.meet(s, t) != low:
                return f"meet({s}, {t})"
            if size.join(s, t) != high:
                return f"join({s}, {t})"
    return None


def _check_meet_last_law(size: SizeMemo) -> str | None:
    for a, b in product(size.elements, repeat=2):
        if size.meet(a, b).last != min(a.last, b.last):
            return f"meet({a}, {b})"
    return None


def _check_meet_semilattice_laws(size: SizeMemo) -> str | None:
    pool = size.elements
    # one meet per ordered pair; the triple laws are index lookups
    table = [[size.universe.index(size.meet(a, b)) for b in pool] for a in pool]
    for i, a in enumerate(pool):
        if table[i][i] != i:
            return f"not idempotent at {a}"
    down, _ = size.order_masks
    for (i, a), (j, b) in product(enumerate(pool), repeat=2):
        low = table[i][j]
        if low != table[j][i]:
            return f"not commutative: {a}, {b}"
        if not (down[i] >> low & 1 and down[j] >> low & 1):
            return f"not a lower bound: {a}, {b}"
    for (i, a), (j, b) in product(enumerate(pool), repeat=2):
        low = table[i][j]
        # bit k set: pool[k] is below a and b but not below their meet
        not_greatest = down[i] & down[j] & ~down[low]
        left = table[low]  # meet(meet(a, b), c) for every c
        right = [table[i][k] for k in table[j]]  # meet(a, meet(b, c))
        not_associative = 0
        if left != right:
            not_associative = sum(
                1 << k for k, (x, y) in enumerate(zip(left, right)) if x != y
            )
        if not_greatest or not_associative:
            k = _lowest_bit(not_greatest | not_associative)
            law = "greatest" if not_greatest >> k & 1 else "associative"
            return f"not {law}: {a}, {b}, {pool[k]}"
    return None


def _check_join_absorption(size: SizeMemo) -> str | None:
    for a, b in product(size.elements, repeat=2):
        if size.join(a, size.meet(a, b)) != a:
            return f"join-absorb: {a}, {b}"
        if size.meet(a, size.join(a, b)) != a:
            return f"meet-absorb: {a}, {b}"
    return None


def _check_closure_equals_order(size: SizeMemo) -> str | None:
    n = size.n
    report = closure_equals_order(n, n)
    if not report.passed:
        return f"n={n}: {report.witness}"
    return None


def _check_covering_within_balancing(size: SizeMemo) -> str | None:
    n = size.n
    covers = covering_pairs(n, n)
    if covers != covering_pairs_by_definition(n, n):
        return f"n={n}: covers differ from the definition"
    steps = {(s.target, s.source) for s in size.balancing_steps()}
    for low, high in covers:
        if (low, high) not in steps:
            return f"cover {low} < {high}"
    return None


def _check_balancing_step_decrement(size: SizeMemo) -> str | None:
    for step in size.balancing_steps():
        l, j, target = step.source, step.excess_index, step.target
        deep = l[j - 1]
        shallow = max(c for c in l if c <= deep - 2)
        drop = sum_components(l) - sum_components(target)
        if drop != deep - shallow - 1 or drop < 1:
            return f"{l} at {j}"
        if not (leq(target, l) and target != l):
            return f"{l} at {j} not a descent"
    return None


def _check_irreducibility_triple_agreement(size: SizeMemo) -> str | None:
    for l in size.elements:
        by_covers = size.irreducible(l)
        by_balancing = is_join_irreducible_by_balancing(l)
        by_shape = is_join_irreducible_by_decomposition(l)
        if not (by_covers == by_balancing == by_shape):
            return f"{l}: covers={by_covers} balancing={by_balancing} shape={by_shape}"
        if decompose_segments(l).concatenation() != l.components:
            return f"split broken at {l}"
    return None


def _check_unique_cover_first_step(size: SizeMemo) -> str | None:
    for l in size.elements:
        if not size.irreducible(l):
            continue
        first = balancing_step(l, excess_indices(l)[0])
        if _lower_covers(l.components) != [first.components]:
            return f"at {l}"
    return None


def _check_monotone_parameters(size: SizeMemo) -> str | None:
    # each element's sum and node counts within depth d = 0..n, once
    sums = {x: sum_components(x) for x in size.elements}
    counts = {x: [nodes_within_depth(x, d) for d in range(size.n + 1)] for x in size.elements}
    for a, b in size.ordered_pairs:
        if a != b and not sums[a] < sums[b]:
            return f"sum not strict: {a}, {b}"
        for d, (x, y) in enumerate(zip(counts[a], counts[b])):
            if x < y:
                return f"{a}, {b} at d={d}"
    return None


def _check_kraft_realization(size: SizeMemo) -> str | None:
    for l in size.elements:
        code = canonical_code(l)
        if tuple(len(w) for w in code) != l.components:
            return f"lengths differ at {l}"
        for a in code:
            for b in code:
                if a != b and b.startswith(a):
                    return f"prefix clash at {l}"
        tree = tree_from_sequence(l)
        if sequence_from_tree(tree) != l:
            return f"round trip at {l}"
        if tree_from_sequence(sequence_from_tree(tree)) != tree:
            return f"tree round trip at {l}"
        if tuple(sorted(leaf_codewords(tree))) != tuple(sorted(code)):
            return f"codewords differ at {l}"
    return None


CHECKS: dict[str, Check] = {
    "partial-order-laws": _check_partial_order_laws,
    "last-suffix-monotonicity": _check_last_suffix_monotonicity,
    "scale-independence": _check_scale_independence,
    "expansion-monotonicity": _check_expansion_monotonicity,
    "expansion-coincidence": _check_expansion_coincidence,
    "upper-lower-expansion": _check_upper_lower_expansion,
    "contraction-sandwich": _check_contraction_sandwich,
    "contraction-round-trip": _check_contraction_round_trip,
    "enumeration-oracle": _check_enumeration_oracle,
    "bottom-top-extremes": _check_bottom_top_extremes,
    "excess-iff-not-bottom": _check_excess_iff_not_bottom,
    "lattice-bounds-unique": _check_lattice_bounds_unique,
    "meet-oracle-agreement": _check_meet_oracle_agreement,
    "meet-last-law": _check_meet_last_law,
    "meet-semilattice-laws": _check_meet_semilattice_laws,
    "join-absorption": _check_join_absorption,
    "closure-equals-order": _check_closure_equals_order,
    "covering-within-balancing": _check_covering_within_balancing,
    "balancing-step-decrement": _check_balancing_step_decrement,
    "irreducibility-triple-agreement": _check_irreducibility_triple_agreement,
    "unique-cover-first-step": _check_unique_cover_first_step,
    "monotone-parameters": _check_monotone_parameters,
    "kraft-realization": _check_kraft_realization,
}


def run_checks(
    max_n: int,
    names: Iterable[str] | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> list[PropertyReport]:
    """Run the named checks (all by default) for sizes up to ``max_n``.

    ``names`` is a collection of check names; a bare ``str`` is refused.
    Reports come back in registry order regardless of the order names were
    given in, keeping output stable.  Sizes beyond ``ceiling`` are refused
    before any check runs.  Sizes then run outermost: for n = 1 to
    ``max_n`` one ``SizeMemo`` of the length-n universe is built, each
    selected check without a witness yet runs on it in registry order, and
    the memo is dropped.  A check stops at the first witness it returns; an
    ``ImbalatticeError`` raised inside a check becomes that check's failure,
    with the error as its witness, and the remaining checks still run.  The
    memos never store an exception, so every check that repeats a failing
    call reports the error itself.
    """
    if isinstance(names, str):
        raise TypeError(
            f"names must be a list of check names, not a str; pass [{names!r}]"
        )
    selected = set(CHECKS) if names is None else set(names)
    unknown = selected - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    _check_size(max_n, ceiling)
    witnesses: dict[str, str | None] = {name: None for name in CHECKS if name in selected}
    for n in range(1, max_n + 1):
        pending = [name for name, witness in witnesses.items() if witness is None]
        if not pending:
            break
        size = SizeMemo(enumerate_universe(n, ceiling))
        for name in pending:
            try:
                witnesses[name] = CHECKS[name](size)
            except ImbalatticeError as exc:
                witnesses[name] = f"{type(exc).__name__}: {exc}"
    return [
        PropertyReport(name, max_n, "pass" if witness is None else "fail", witness)
        for name, witness in witnesses.items()
    ]
