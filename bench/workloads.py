"""The library side of the workloads: one query, and the check of its output.

A query calls the package through ``imbalattice``'s top-level names at call
time, so a tracer installed afterwards sees every call.  Checks run after
the timed region and lean on the package's independent oracle
(``leq_by_definition`` and ``enumerate_by_partition``), never on the fast
path that produced the answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference" / "cli.json"
# The count the oracle's partition search gives for n = 18.
ENUMERATE_18_COUNT = 5269


def import_program():
    """Import ``imbalattice`` from this checkout's ``src``, and only from there."""
    package = SRC / "imbalattice"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no imbalattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import imbalattice

    if Path(imbalattice.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported imbalattice from {imbalattice.__file__}")
    return imbalattice


STREAMS = {"pair-queries": inputs.pair_stream, "deep-sequences": inputs.deep_stream}


class Seq(NamedTuple):
    """A bare components holder, enough for the oracle's order checks."""

    components: tuple[int, ...]


def pair_query(il, a, b):
    """validate x2, compare, meet and join on a length-14 pair."""
    s, t = il.validate(a), il.validate(b)
    return s, t, il.compare(s, t), il.meet(s, t), il.join(s, t)


def pair_record(a, b, output):
    """What the oracle check needs of a pair query, as plain tuples."""
    s, t, verdict, low, high = output
    inputs_ok = s.components == a and t.components == b
    return inputs_ok, verdict.value, low.components, high.components


def deep_query(il, a, b):
    """validate x2, compare, meet, every balancing step of ``s``, and the
    canonical tree of ``s`` and code of ``t``."""
    s, t = il.validate(a), il.validate(b)
    verdict = il.compare(s, t)
    low = il.meet(s, t)
    steps = [il.balancing_step(s, j) for j in il.excess_indices(s)]
    return s, t, verdict, low, steps, il.tree_from_sequence(s), il.canonical_code(t)


def deep_record(a, b, output):
    """Checks the shape of a deep query's outputs on the spot, and keeps
    what the oracle check needs as plain tuples."""
    s, t, verdict, low, steps, tree, code = output
    shape_ok = (
        s.components == a and t.components == b
        and all(len(x) == len(a) and sum(x) < sum(a) for x in steps)
        and len(set(steps)) == len(steps)
        and leaf_depths(tree) == list(a)
        and code_ok(code, b)
    )
    return shape_ok, verdict.value, bytes(low.components)


# workload -> (query, record): a query's raw output is turned into its
# record right after it is timed, so a run holds only small records.  Runs
# keep inputs and deep meets as bytes (every depth is below 256), so the
# benchmark's own memory barely grows with the number of queries and peak
# RSS stays the program's.
QUERIES = {
    "pair-queries": (pair_query, pair_record),
    "deep-sequences": (deep_query, deep_record),
}


class Checker:
    """Checks query records against the package's oracle."""

    def __init__(self, il) -> None:
        self.il = il
        self._order = None

    def _verdict_ok(self, s, t, verdict: str) -> bool:
        below = self.il.leq_by_definition(s, t)
        above = self.il.leq_by_definition(t, s)
        expected = {
            (True, True): "equal", (True, False): "more-balanced",
            (False, True): "less-balanced", (False, False): "incomparable",
        }[below, above]
        return verdict == expected

    def _pair_order(self):
        """The oracle's order on its own length-14 enumeration, memoized as
        one down-set and one up-set bitmask per element."""
        if self._order is None:
            elements = self.il.enumerate_by_partition(inputs.PAIR_N)
            leq = self.il.leq_by_definition
            down, up = [0] * len(elements), [0] * len(elements)
            for i, x in enumerate(elements):
                for j, y in enumerate(elements):
                    if leq(x, y):
                        down[j] |= 1 << i
                        up[i] |= 1 << j
            index = {x.components: i for i, x in enumerate(elements)}
            self._order = index, down, up
        return self._order

    def pair(self, a, b, record) -> bool:
        """Meet and join by definition, as ``meet_bruteforce`` and
        ``join_bruteforce`` find them: the answer is a common bound and
        every common bound lies on the far side of it."""
        inputs_ok, verdict, low, high = record
        index, down, up = self._pair_order()
        i, j = index[a], index[b]
        lowers, uppers = down[i] & down[j], up[i] & up[j]
        m, u = index.get(low), index.get(high)
        return (
            inputs_ok
            and self._verdict_ok(Seq(a), Seq(b), verdict)
            and m is not None and lowers >> m & 1 == 1 and lowers & ~down[m] == 0
            and u is not None and uppers >> u & 1 == 1 and uppers & ~up[u] == 0
        )

    def deep(self, a, b, record) -> bool:
        shape_ok, verdict, low = record
        low = tuple(low)
        leq = self.il.leq_by_definition
        s, t, m = Seq(a), Seq(b), Seq(low)
        return (
            shape_ok
            and self._verdict_ok(s, t, verdict)
            and leq(m, s) and leq(m, t)
            and low[-1] == min(a[-1], b[-1])
            and (low == a or not leq(s, t))
            and (low == b or not leq(t, s))
        )


def timed_query(il, workload: str, a, b):
    """Run one query; return its seconds and its record, or None for the
    record when the query raised."""
    query, record = QUERIES[workload]
    began = perf_counter()
    try:
        output = query(il, a, b)
    except Exception:
        return perf_counter() - began, None
    elapsed = perf_counter() - began
    try:
        return elapsed, record(a, b, output)
    except Exception:
        return elapsed, None


def count_failures(il, workload: str, records) -> int:
    """Check every ``(a, b, record)``, with ``a`` and ``b`` as tuples or
    bytes; a raised query or check fails."""
    checker = Checker(il)
    check = checker.pair if workload == "pair-queries" else checker.deep
    failed = 0
    for a, b, record in records:
        try:
            ok = record is not None and check(tuple(a), tuple(b), record)
        except Exception:
            ok = False
        failed += not ok
    return failed


def leaf_depths(tree) -> list[int]:
    """Left-to-right leaf depths of a ``CodeTree``, walked iteratively."""
    out, todo = [], [(tree, 0)]
    while todo:
        node, depth = todo.pop()
        if node.children is None:
            out.append(depth)
        else:
            todo += ((node.children[1], depth + 1), (node.children[0], depth + 1))
    return out


def code_ok(code, lengths) -> bool:
    """Codeword lengths match and no word is a prefix of another."""
    if tuple(len(w) for w in code) != tuple(lengths) or set("".join(code)) - {"0", "1"}:
        return False
    ordered = sorted(code)
    return all(not b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def load_reference() -> dict[str, str]:
    """Stdout of every one-shot and heavy CLI call, keyed by its argv."""
    return json.loads(REFERENCE.read_text())


def cli_output_ok(reference: dict[str, str], argv, returncode: int, stdout: str) -> bool:
    if returncode != 0 or reference.get(" ".join(argv)) != stdout:
        return False
    return argv[0] != "enumerate" or stdout == f"{ENUMERATE_18_COUNT}\n"
