"""Span tracing of ``imbalattice`` layers, installed from outside the package.

``install`` replaces each traced public function in every ``imbalattice``
module that binds it (``imbalattice.lattice.leq``, ``imbalattice.cli.hasse``
and so on), so calls the package makes into itself are recorded as well as
calls the benchmark makes.  Each call becomes a span (name, start, end,
parent) kept in compact in-memory arrays; ``write`` stores them when the
traced process ends.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from functools import update_wrapper
from time import perf_counter

# span name -> (module, attribute) bindings that feed it.  A dotted
# attribute names a method of a class in that module.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "sequences.validate": (("imbalattice.sequences", "PathLengthSequence.__post_init__"),),
    "sequences.leq": (("imbalattice.sequences", "leq"),),
    "sequences.compare": (("imbalattice.sequences", "compare"),),
    "transforms.expansion": (("imbalattice.transforms", "expansion_at"),),
    "transforms.contraction": (("imbalattice.transforms", "contraction"),),
    "lattice.meet": (("imbalattice.lattice", "meet"),),
    "lattice.join": (("imbalattice.lattice", "join"),),
    "lattice.enumerate_universe": (("imbalattice.lattice", "enumerate_universe"),),
    "lattice.hasse": (("imbalattice.lattice", "hasse"),),
    "lattice.balancing": (
        ("imbalattice.lattice", "excess_indices"),
        ("imbalattice.lattice", "balancing_step"),
    ),
    "irreducibility.by_covers": (("imbalattice.irreducibility", "is_join_irreducible_by_covers"),),
    "irreducibility.by_balancing": (
        ("imbalattice.irreducibility", "is_join_irreducible_by_balancing"),
    ),
    "irreducibility.by_decomposition": (
        ("imbalattice.irreducibility", "is_join_irreducible_by_decomposition"),
    ),
    "trees": tuple(
        ("imbalattice.trees", name)
        for name in (
            "canonical_code", "tree_from_sequence", "sequence_from_tree", "leaf_codewords",
            "nodes_within_depth", "sum_components", "tree_ascii", "tree_dot",
        )
    ),
    "oracle.enumerate_by_partition": (("imbalattice.oracle", "enumerate_by_partition"),),
    "oracle.bruteforce": (
        ("imbalattice.oracle", "meet_bruteforce"),
        ("imbalattice.oracle", "join_bruteforce"),
    ),
    "oracle.closure_equals_order": (("imbalattice.oracle", "closure_equals_order"),),
    "oracle.leq_by_definition": (("imbalattice.oracle", "leq_by_definition"),),
    "cli.main": (("imbalattice.cli", "main"),),
}
VERIFY_PREFIX = "verify."
COVER_EDGES = "lattice.hasse.cover_edges"


class Tracer:
    """Records nested spans of wrapped calls in one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every binding named in ``LAYERS`` and every ``verify`` check.

        Returns the bindings that the imported package lacks, so a caller
        can report layers that stay empty.
        """
        packages = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "imbalattice" or name.startswith("imbalattice."))
        ]
        missing = []
        for span, bindings in LAYERS.items():
            for module_name, attr in bindings:
                module = sys.modules.get(module_name)
                if module is None:
                    continue  # not imported here, so never called here
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None)
                if original is None:
                    missing.append(f"{module_name}:{attr}")
                    continue
                hook = self._count_covers if span == "lattice.hasse" else None
                traced = self.wrap(span, original, hook)
                if owner_name:
                    self._patch(owner, leaf, traced)
                    continue
                for package in packages:
                    for key, value in list(vars(package).items()):
                        if value is original:
                            self._patch(package, key, traced)
        verify = sys.modules.get("imbalattice.verify")
        checks = getattr(verify, "CHECKS", {})
        for key, check in list(checks.items()):
            self._restore.append((checks, key, check))
            checks[key] = self.wrap(VERIFY_PREFIX + key, check)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _count_covers(self, universe) -> None:
        self.counters[COVER_EDGES] += len(universe.cover_edges or ())

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per parent/child
        name pair: direct calls; plus the counters."""
        names, name_of, parent = self.names, self.name_of, self.parent
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        edges: Counter[tuple[int, int]] = Counter()
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += duration[i]
                edges[name_of[p], name_of[i]] += 1
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for i, name_id in enumerate(name_of):
            name = names[name_id]
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - covered[i]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "edges": [[names[a], names[b], n] for (a, b), n in sorted(edges.items())],
            "counters": dict(self.counters),
        }

    def write(self, path) -> None:
        """Store the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:H", "parent:q", "start:d", "end:d"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(out)


def read_spans(path) -> tuple[list[str], list[tuple[str, int, float, float]]]:
    """Load a file written by ``Tracer.write`` as (name, parent, start, end) rows."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["spans"]
        columns = []
        for typecode in ("H", "q", "d", "d"):
            column = array(typecode)
            column.fromfile(src, count)
            columns.append(column)
    names = header["names"]
    return names, [(names[n], p, s, e) for n, p, s, e in zip(*columns)]


def merge(summaries) -> dict:
    """Sum several ``Tracer.summary`` results (one per traced process)."""
    merged = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(),
              "edges": Counter(), "counters": Counter()}
    for part in summaries:
        for key in ("calls", "total_s", "self_s", "counters"):
            merged[key].update(part[key])
        for a, b, n in part["edges"]:
            merged["edges"][a, b] += n
    return merged
