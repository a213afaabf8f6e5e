#!/usr/bin/env python3
"""Running the brute-force verification layer.

Everything the library computes cleverly is recomputed here the dumb way:
enumeration by dyadic partition search, order checks from the definition
with exact integer partial sums, meets and joins by exhaustive scan, and the closure
of the balancing relation by Warshall's algorithm on bitmask rows.
"""

from imbalattice import (
    closure_equals_order,
    enumerate_by_partition,
    enumerate_universe,
    join_bruteforce,
    meet_bruteforce,
    run_checks,
    validate,
)

print("== two enumerations, one answer ==")
for n in range(1, 13):
    fast = set(enumerate_universe(n).elements)
    slow = set(enumerate_by_partition(n))
    print(f"  n={n:2d}: leaf-count table {len(fast):3d}, "
          f"partition search {len(slow):3d}, equal: {fast == slow}")

print()
print("== exhaustive meet/join on the 7-component universe ==")
universe = enumerate_universe(7)
s = validate((2, 2, 2, 3, 4, 5, 5))
t = validate((1, 3, 3, 4, 4, 4, 4))
print(f"  brute meet: {meet_bruteforce(s, t, universe)}")
print(f"  brute join: {join_bruteforce(s, t, universe)}")

print()
print("== closure of the balancing relation equals the order ==")
for n in (5, 7, 8):
    print(f"  {closure_equals_order(n)}")

print()
print("== the full law suite up to 6 components ==")
for report in run_checks(6):
    print(f"  {report}")
