#!/usr/bin/env python3
"""Join-irreducible sequences found three independent ways.

An element is join-irreducible when it covers exactly one element.  The
cover test counts lower covers; the balancing test compares the moves
available at the sequence; the decomposition test only inspects the shape
(near-constant head, strictly increasing middle, near-constant tail).
"""

from imbalattice import (
    decompose_segments,
    enumerate_universe,
    is_join_irreducible_by_balancing,
    is_join_irreducible_by_covers,
    is_join_irreducible_by_decomposition,
    validate,
)

print("== all three tests on the 7-component universe ==")
universe = enumerate_universe(7)
print(f"{'sequence':>16}  covers  balancing  shape")
for l in universe:
    verdicts = (
        is_join_irreducible_by_covers(l, universe),
        is_join_irreducible_by_balancing(l),
        is_join_irreducible_by_decomposition(l),
    )
    assert len(set(verdicts)) == 1
    print(f"{str(l):>16}  {verdicts[0]!s:>6}  {verdicts[1]!s:>9}  {verdicts[2]!s:>5}")
print("only the bottom and the diamond top 1,3,3,3,4,5,5 are reducible")

print()
print("== why the shape test answers what it answers ==")
for raw in [(1, 2, 4, 4, 4, 5, 5), (1, 3, 3, 3, 4, 5, 5), (2, 2, 3, 3, 3, 4, 4)]:
    split = decompose_segments(validate(raw))
    print(f"{raw}: head={split.head} middle={split.middle} tail={split.tail}")
    print(f"   middle strictly increasing: {split.middle_strictly_increasing}, "
          f"tail run deep enough: {split.tail_run_deep_enough}")

print()
print("== counts per universe size ==")
for n in range(1, 10):
    universe = enumerate_universe(n)
    count = sum(1 for l in universe if is_join_irreducible_by_balancing(l))
    print(f"  n={n}: {count} of {len(universe)} join-irreducible")
