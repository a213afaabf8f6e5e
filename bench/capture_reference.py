"""Capture the CLI reference outputs the benchmark checks against.

    python3 bench/capture_reference.py

Runs every one-shot command ``inputs.one_shot_stream`` can draw and every
whole-universe command through ``python -m imbalattice``, and writes their
stdout to ``reference/cli.json``.  The file pins the determinism contract
(identical invocations print identical bytes), so recapture only when an
output change is intended.
"""

from __future__ import annotations

import json
import sys

import inputs
import workloads
from run import run_cli


def main() -> int:
    il = workloads.import_program()
    count = len(il.enumerate_by_partition(18))
    if count != workloads.ENUMERATE_18_COUNT:
        print(f"oracle count for n=18 is {count}, not {workloads.ENUMERATE_18_COUNT}",
              file=sys.stderr)
        return 1
    reference = {}
    for argv in [*inputs.all_one_shots(), *inputs.HEAVY_COMMANDS]:
        _, returncode, stdout = run_cli(argv)
        if returncode != 0:
            print(f"{' '.join(argv)} exited {returncode}", file=sys.stderr)
            return 1
        reference[" ".join(argv)] = stdout
    workloads.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"{len(reference)} outputs written to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
