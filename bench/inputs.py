"""Seeded input generators for the benchmark workloads.

Everything here is plain standard-library code that shares nothing with
``imbalattice``: the program under test only ever receives the integer
tuples these generators produce.  The same seed always yields the same
stream of inputs, and each stream is infinite so a run can draw as many
queries as its time budget allows.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import lru_cache
from typing import Iterator

PAIR_N = 14
# Strata per block of the pair and deep streams.
BLOCK = 50
DEEP_SIZES = (64, 128, 256)
ONE_SHOT_SIZES = (5, 6, 7)
ONE_SHOT_PAIR_COMMANDS = ("compare", "meet")
ONE_SHOT_SINGLE_COMMANDS = ("balance", "tree", "code")
# The whole-universe commands every run times once, in this order.
HEAVY_COMMANDS = (
    ("enumerate", "18", "--count"),
    ("hasse", "14"),
    ("irreducibles", "14"),
    ("verify", "8"),
)


@lru_cache(maxsize=None)
def universe(n: int) -> tuple[tuple[int, ...], ...]:
    """Every nondecreasing depth tuple of length ``n`` with Kraft sum 1.

    Depth-first search over integer weights scaled by ``2**(n-1)`` (no leaf
    of an n-leaf full binary tree is deeper than n-1), in lexicographic
    order.
    """
    scale = n - 1
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(budget: int, remaining: int, min_depth: int) -> None:
        if remaining == 0:
            if budget == 0:
                found.append(tuple(prefix))
            return
        for depth in range(min_depth, scale + 1):
            weight = 1 << (scale - depth)
            if weight * remaining < budget:
                return
            if weight <= budget:
                prefix.append(depth)
                extend(budget - weight, remaining - 1, depth)
                prefix.pop()

    extend(1 << scale, n, 0)
    return tuple(found)


def _prefix_weights(components: tuple[int, ...], scale: int) -> tuple[int, ...]:
    out, total = [], 0
    for depth in components:
        total += 1 << (scale - depth)
        out.append(total)
    return tuple(out)


@lru_cache(maxsize=None)
def pairs_by_upper_bounds(n: int) -> array:
    """Every index pair ``i * len(pool) + j`` of ``universe(n)``, ranked by
    how many common upper bounds the pair has.

    ``s <= t`` (``s`` at least as balanced as ``t``) when every prefix sum of
    ``2**-s_i`` is at most that of ``t``; the up-set of each element is the
    intersection, over prefix positions, of the elements whose sum there is
    at least as large.  Join folds meet over the common upper bounds, so
    the count ranks pairs by the work join does.  A counting sort into one
    compact array keeps the benchmark's own memory small.
    """
    pool = universe(n)
    size = len(pool)
    sums = [_prefix_weights(c, n - 1) for c in pool]
    up = [(1 << size) - 1] * size
    for k in range(n):
        # at_least[v]: the elements whose k-th prefix sum is at least v
        at_least, mask = {}, 0
        for j in sorted(range(size), key=lambda j: sums[j][k], reverse=True):
            mask |= 1 << j
            at_least[sums[j][k]] = mask
        up = [u & at_least[x[k]] for u, x in zip(up, sums)]
    counts = array("H", ((x & y).bit_count() for x in up for y in up))
    offsets, total = [0] * (size + 1), 0
    for count, many in sorted(Counter(counts).items()):
        offsets[count] = total
        total += many
    ranked = array("I", bytes(4 * len(counts)))
    for index, count in enumerate(counts):
        ranked[offsets[count]] = index
        offsets[count] += 1
    return ranked


def pair_stream(seed: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Uniformly drawn pairs from the length-14 universe (510 elements), in
    stratified blocks.

    Each block of ``BLOCK`` pairs takes one pair uniformly from each of
    ``BLOCK`` equal slices of the ranking by common upper bounds, in shuffled
    order.  Every pair stays equally likely, but every block spans the whole
    range of join's work, so latency quantiles vary little from seed to seed.
    """
    rng = random.Random(f"pair-queries/{seed}")
    pool = universe(PAIR_N)
    ranked = pairs_by_upper_bounds(PAIR_N)
    edges = [len(ranked) * k // BLOCK for k in range(BLOCK + 1)]
    while True:
        block = [ranked[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]
        rng.shuffle(block)
        for index in block:
            i, j = divmod(index, len(pool))
            yield pool[i], pool[j]


def random_splits(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    """Grow a full binary tree to ``n`` leaves by seeded leaf splits.

    Each split picks the deepest leaf with probability ``p`` and a uniform
    leaf otherwise, so the maximum depth ranges from about ``2*log2(n)``
    (``p = 0``, random splits) up to ``n-1`` (``p = 1``, the caterpillar).
    """
    leaves = [0]
    while len(leaves) < n:
        if rng.random() < p:
            i = max(range(len(leaves)), key=leaves.__getitem__)
        else:
            i = rng.randrange(len(leaves))
        depth = leaves.pop(i)
        leaves += (depth + 1, depth + 1)
    return tuple(sorted(leaves))


def _spread(rng: random.Random, count: int) -> list[float]:
    """``count`` uniform draws from [0, 1), one in each of ``count`` equal
    slices, in shuffled order."""
    out = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(out)
    return out


def deep_stream(seed: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs of equal-length random-split sequences with n in 64, 128, 256,
    in stratified blocks.

    Each block holds ``BLOCK`` pairs of every size, and the deepest-leaf
    probability ``p`` of each side's tree takes one value from each of
    ``BLOCK`` equal slices of [0, 1), so every block covers every size and
    depth profile evenly.
    """
    rng = random.Random(f"deep-sequences/{seed}")
    while True:
        block = [
            (n, p, q)
            for n in DEEP_SIZES
            for p, q in zip(_spread(rng, BLOCK), _spread(rng, BLOCK))
        ]
        rng.shuffle(block)
        for n, p, q in block:
            yield random_splits(rng, n, p), random_splits(rng, n, q)


def warm_up_pair(workload: str, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair of the untimed warm-up query: one of middling work, so the
    set-up time does not swing with the seed.

    For pair-queries, a pair from the middle slice of the ranking by common
    upper bounds; for deep-sequences, a pair at the middle size grown with
    ``p = 1/2``.
    """
    rng = random.Random(f"{workload}/warm-up/{seed}")
    if workload == "pair-queries":
        pool = universe(PAIR_N)
        ranked = pairs_by_upper_bounds(PAIR_N)
        half_slice = len(ranked) // (2 * BLOCK)
        i, j = divmod(ranked[len(ranked) // 2 + rng.randrange(-half_slice, half_slice)], len(pool))
        return pool[i], pool[j]
    n = DEEP_SIZES[len(DEEP_SIZES) // 2]
    return random_splits(rng, n, 0.5), random_splits(rng, n, 0.5)


def _text(components: tuple[int, ...]) -> str:
    return ",".join(map(str, components))


def one_shot_stream(seed: int) -> Iterator[tuple[str, ...]]:
    """Argument vectors of cheap one-shot CLI commands at n in 5, 6, 7."""
    rng = random.Random(f"cli-session/{seed}")
    commands = ONE_SHOT_PAIR_COMMANDS + ONE_SHOT_SINGLE_COMMANDS
    while True:
        command = rng.choice(commands)
        pool = universe(rng.choice(ONE_SHOT_SIZES))
        if command in ONE_SHOT_PAIR_COMMANDS:
            yield command, _text(rng.choice(pool)), _text(rng.choice(pool))
        else:
            yield command, _text(rng.choice(pool))


def all_one_shots() -> Iterator[tuple[str, ...]]:
    """Every argument vector ``one_shot_stream`` can produce."""
    for n in ONE_SHOT_SIZES:
        pool = [_text(c) for c in universe(n)]
        for command in ONE_SHOT_PAIR_COMMANDS:
            for a in pool:
                for b in pool:
                    yield command, a, b
        for command in ONE_SHOT_SINGLE_COMMANDS:
            for a in pool:
                yield command, a
