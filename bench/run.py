"""The imbalattice benchmark: three closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, and CLI calls run ``python -m imbalattice`` with
``PYTHONPATH=src`` from the checkout root.  Workloads:

* ``pair-queries``: uniformly drawn pairs of the length-14 universe,
  stratified by join's work; one query is validate x2, compare, meet and
  join.  Join does almost all of the work.
* ``deep-sequences``: seeded random-split sequences at n = 64, 128, 256,
  stratified by size and depth profile; one query is validate x2, compare,
  meet, every balancing step and the canonical tree and code.  No universe
  is involved.
* ``cli-session``: cheap one-shot CLI commands at n <= 7, each a fresh
  interpreter.

Every run also times the whole-universe CLI commands ``enumerate 18
--count``, ``hasse 14``, ``irreducibles 14`` and ``verify 8``, because
every workload reports every end-to-end metric.  They are interleaved with
the queries so each metric samples the whole run; the machine's speed
drifts over seconds, and medians over an interleaved run absorb that.
Stratified inputs keep the seed from moving the latency quantiles.
Outputs are checked outside the timed region.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced replay of a fixed amount of the
workload's work, each piece also replayed untraced so the tracing overhead
shows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import inputs
import workloads
from spans import merge

BENCH = workloads.BENCH
ROOT = workloads.ROOT
OUT = BENCH / "out"
WORKLOADS = ("pair-queries", "deep-sequences", "cli-session")
MIN_QUERIES = 100  # so the p90 has at least ten samples beyond it
HEAVY_REPEATS = 2
TRACE_QUERIES = 100
TRACE_ONE_SHOTS = 20
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "enumerate_s": "s",
    "hasse_s": "s",
    "irreducibles_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}
HEAVY_METRICS = ("enumerate_s", "hasse_s", "irreducibles_s", "verify_s")
VERIFY_CHECKS = (
    "partial-order-laws", "last-suffix-monotonicity", "scale-independence",
    "expansion-monotonicity", "expansion-coincidence", "upper-lower-expansion",
    "contraction-sandwich", "contraction-round-trip", "enumeration-oracle",
    "bottom-top-extremes", "excess-iff-not-bottom", "lattice-bounds-unique",
    "meet-oracle-agreement", "meet-last-law", "meet-semilattice-laws",
    "join-absorption", "closure-equals-order", "covering-within-balancing",
    "balancing-step-decrement", "irreducibility-triple-agreement",
    "unique-cover-first-step", "monotone-parameters", "kraft-realization",
)
# per-layer metric -> (unit, how it is read off the merged span summary)
PER_LAYER = {
    "lattice.join.self_s": ("s", ("self", "lattice.join")),
    "lattice.join.leq_per_call": ("count/call", ("per_call", "lattice.join", "sequences.leq")),
    "lattice.join.meet_per_call": ("count/call", ("per_call", "lattice.join", "lattice.meet")),
    "lattice.meet.calls": ("count", ("calls", "lattice.meet")),
    "lattice.meet.self_s": ("s", ("self", "lattice.meet")),
    "transforms.expansion.calls": ("count", ("calls", "transforms.expansion")),
    "transforms.expansion.self_s": ("s", ("self", "transforms.expansion")),
    "transforms.contraction.calls": ("count", ("calls", "transforms.contraction")),
    "transforms.contraction.self_s": ("s", ("self", "transforms.contraction")),
    "sequences.validate.calls": ("count", ("calls", "sequences.validate")),
    "sequences.validate.self_s": ("s", ("self", "sequences.validate")),
    "sequences.leq.calls": ("count", ("calls", "sequences.leq")),
    "sequences.leq.self_s": ("s", ("self", "sequences.leq")),
    "sequences.compare.self_s": ("s", ("self", "sequences.compare")),
    "lattice.enumerate_universe.self_s": ("s", ("self", "lattice.enumerate_universe")),
    "lattice.hasse.self_s": ("s", ("self", "lattice.hasse")),
    "lattice.hasse.cover_edges": ("count", ("counter", "lattice.hasse.cover_edges")),
    "irreducibility.by_covers.self_s": ("s", ("self", "irreducibility.by_covers")),
    "irreducibility.by_covers.leq_per_call": (
        "count/call", ("per_call", "irreducibility.by_covers", "sequences.leq")),
    "irreducibility.by_balancing.self_s": ("s", ("self", "irreducibility.by_balancing")),
    "irreducibility.by_decomposition.self_s": ("s", ("self", "irreducibility.by_decomposition")),
    "lattice.balancing.calls": ("count", ("calls", "lattice.balancing")),
    "lattice.balancing.self_s": ("s", ("self", "lattice.balancing")),
    "trees.self_s": ("s", ("self", "trees")),
    "oracle.enumerate_by_partition.self_s": ("s", ("self", "oracle.enumerate_by_partition")),
    "oracle.bruteforce.self_s": ("s", ("self", "oracle.bruteforce")),
    "oracle.closure_equals_order.self_s": ("s", ("self", "oracle.closure_equals_order")),
    "oracle.leq_by_definition.calls": ("count", ("calls", "oracle.leq_by_definition")),
    **{f"verify.{name}.s": ("s", ("total", f"verify.{name}")) for name in VERIFY_CHECKS},
    "cli.main.self_s": ("s", ("self", "cli.main")),
    "trace.overhead_s": ("s", ("overhead",)),
}


def environment() -> dict[str, str | int | None]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def run_cli(argv) -> tuple[float, int, str]:
    """One ``python -m imbalattice`` call: wall seconds, exit code, stdout."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "imbalattice", *argv], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, -1, ""
    return perf_counter() - start, proc.returncode, proc.stdout


def run_child(args, trace: int = 0, spans: Path | None = None) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    command = [sys.executable, str(BENCH / "child.py"), "--trace", str(trace)]
    if spans is not None:
        command += ["--spans", str(spans)]
    proc = subprocess.run(
        command + [str(a) for a in args], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Tally:
    """Ops attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def measure(il, workload: str, seed: int, seconds: float, reference, tally: Tally):
    """The timed run, in rounds so every metric samples the whole run.

    Each round takes one set-up sample, runs one whole-universe command
    (cycling, so each runs ``HEAVY_REPEATS`` times), then queries until the
    round's share of ``seconds`` is used, with at least enough queries for
    ``MIN_QUERIES`` in all.  Set-up is a fresh interpreter: for the library
    workloads it imports the package and runs the warm-up query; for
    cli-session it is one one-shot command.  Library queries run in this
    process after its own untimed warm-up on the same warm-up pair; their
    outputs are checked after the last round.
    """
    heavy = list(zip(HEAVY_METRICS, inputs.HEAVY_COMMANDS)) * HEAVY_REPEATS
    per_round = math.ceil(MIN_QUERIES / len(heavy))
    if workload == "cli-session":
        stream = inputs.one_shot_stream(seed)

        def query() -> float:
            argv = next(stream)
            wall, returncode, stdout = run_cli(argv)
            tally.add(workloads.cli_output_ok(reference, argv, returncode, stdout))
            return wall

        set_up = query
    else:
        stream = workloads.STREAMS[workload](seed)
        workloads.timed_query(il, workload, *inputs.warm_up_pair(workload, seed))
        records = []

        def query() -> float:
            a, b = next(stream)
            elapsed, record = workloads.timed_query(il, workload, a, b)
            records.append((bytes(a), bytes(b), record))
            return elapsed

        def set_up() -> float:
            return run_child(["query", workload, seed, 0])["wall_s"]

    setup, latencies = [], []
    walls: dict[str, list[float]] = {name: [] for name in HEAVY_METRICS}
    start = perf_counter()
    for number, (name, argv) in enumerate(heavy, 1):
        setup.append(set_up())
        wall, returncode, stdout = run_cli(argv)
        tally.add(workloads.cli_output_ok(reference, argv, returncode, stdout))
        walls[name].append(wall)
        deadline = start + seconds * number / len(heavy)
        done = 0
        while done < per_round or perf_counter() < deadline:
            latencies.append(query())
            done += 1
    if workload == "cli-session":
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally.attempted += len(records)
        tally.failed += workloads.count_failures(il, workload, records)
    metrics = {name: statistics.median(values) for name, values in walls.items()}
    metrics.update(
        setup_s=statistics.median(setup),
        query_p50_ms=statistics.median(latencies) * 1e3,
        query_p90_ms=statistics.quantiles(latencies, n=10)[8] * 1e3,
        queries_per_s=len(latencies) / sum(latencies),
        peak_rss_mb=peak_rss_kb / 1024,
    )
    return metrics, len(latencies)


def layer_metrics(merged: dict, overhead_s: float) -> dict[str, float]:
    calls, edges = merged["calls"], merged["edges"]

    def read(kind, *names) -> float:
        if kind == "self":
            return merged["self_s"].get(names[0], 0.0)
        if kind == "total":
            return merged["total_s"].get(names[0], 0.0)
        if kind == "calls":
            return calls.get(names[0], 0)
        if kind == "counter":
            return merged["counters"].get(names[0], 0)
        if kind == "per_call":
            parent, child = names
            return edges.get((parent, child), 0) / calls[parent] if calls.get(parent) else 0.0
        if kind == "overhead":
            return overhead_s
        raise ValueError(f"unknown per-layer reading {kind!r}")

    return {name: read(*how) for name, (_, how) in PER_LAYER.items()}


def trace_run(workload: str, seed: int, reference, tally: Tally):
    """Replay a fixed amount of the workload's work traced and untraced,
    each piece in a fresh interpreter, and read the layers off the spans."""
    if workload == "cli-session":
        pieces = [("cli", *argv) for argv in islice(inputs.one_shot_stream(seed), TRACE_ONE_SHOTS)]
        pieces += [("cli", *argv) for argv in inputs.HEAVY_COMMANDS]
    else:
        pieces = [("query", workload, seed, TRACE_QUERIES)]
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries, overhead_s, missing = [], 0.0, set()
    for index, piece in enumerate(pieces):
        untraced = run_child(piece)
        traced = run_child(piece, trace=1, spans=out_dir / f"{index:03d}-{piece[1]}.spans")
        overhead_s += traced["wall_s"] - untraced["wall_s"]
        summaries.append(traced["summary"])
        missing.update(traced["missing"])
        for result in (untraced, traced):
            if piece[0] == "query":
                tally.attempted += result["attempted"]
                tally.failed += result["failed"]
            else:
                tally.add(workloads.cli_output_ok(
                    reference, piece[1:], result["returncode"], result["stdout"]))
    for binding in sorted(missing):
        print(f"note: {binding} not found; its layer reads 0", file=sys.stderr)
    return layer_metrics(merge(summaries), overhead_s), len(pieces)


def report(metrics: dict[str, float], units: dict[str, str], tally: Tally) -> list[str]:
    """One line per metric with its unit, the failed share, and last the
    JSON result line."""
    lines = [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"failed_share {tally.failed / max(tally.attempted, 1)!r} share "
                 f"({tally.failed} of {tally.attempted} ops)")
    lines.append(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    il = workloads.import_program()
    reference = workloads.load_reference()
    tally = Tally()
    env = environment()
    print("env " + json.dumps(env))
    if args.trace:
        metrics, ops = trace_run(args.workload, args.seed, reference, tally)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, ops = measure(il, args.workload, args.seed, args.seconds, reference, tally)
        units = END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ops {ops}")
    print(*report(metrics, units, tally), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
