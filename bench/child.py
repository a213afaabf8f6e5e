"""One unit of benchmark work in a fresh interpreter, traced or not.

    python3 bench/child.py [--trace 0|1] [--spans PATH] query WORKLOAD SEED COUNT
    python3 bench/child.py [--trace 0|1] [--spans PATH] cli ARG...

``query`` draws the warm-up pair and ``COUNT`` pairs of the seeded stream,
imports the package, runs the warm-up query and then the queries, and
checks them.  ``cli`` replays one
command through ``imbalattice.cli.main(argv)``.  Either way ``wall_s``
runs from just before the package import to the end of the work, and the
last stdout line is one JSON object with the outcome and, when traced, the
span summary.  ``--spans`` stores the raw spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from itertools import islice
from time import perf_counter

import inputs
import workloads
from spans import Tracer


def run_queries(il, workload: str, pairs):
    """Warm up on the first pair, then run the rest as queries and return
    their ``(a, b, record)`` triples."""
    workloads.timed_query(il, workload, *pairs[0])
    return [
        (bytes(a), bytes(b), workloads.timed_query(il, workload, a, b)[1]) for a, b in pairs[1:]
    ]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("mode", choices=("query", "cli"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.mode == "query":
        workload, seed, count = args.rest[0], int(args.rest[1]), int(args.rest[2])
        pairs = [inputs.warm_up_pair(workload, seed)]
        pairs += islice(workloads.STREAMS[workload](seed), count)
    start = perf_counter()
    il = workloads.import_program()
    if args.mode == "cli":
        import imbalattice.cli
    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    result = {}
    if args.mode == "query":
        records = run_queries(il, workload, pairs)
        result["wall_s"] = perf_counter() - start
        if tracer:
            tracer.uninstall()
        result.update(attempted=count, failed=workloads.count_failures(il, workload, records))
    else:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            try:
                returncode = imbalattice.cli.main(args.rest)
            except SystemExit as exc:  # argparse exits on usage errors
                returncode = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        result["wall_s"] = perf_counter() - start
        if tracer:
            tracer.uninstall()
        result.update(returncode=returncode, stdout=captured.getvalue())
    if tracer:
        result.update(summary=tracer.summary(), missing=missing)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
