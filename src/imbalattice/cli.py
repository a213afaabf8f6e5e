"""Command-line front end.

Every public library operation is reachable from at least one subcommand,
directly or through the library calls it makes; a test runs one command
line per subcommand under a profiler and checks that each is called.
Output is plain, stable and machine-readable: identical invocations print
identical bytes.

Exit codes: 0 on success, 1 for invalid sequences, failed verification
or a failed write, 2 for usage and parse errors (argparse's convention).

What runs when: the commands call the library through its modules
(``lattice.meet``, ``verify.run_checks``), and the package runs a module
on its first use, so a call runs only the modules it reaches.  Building
the parser reads ``lattice.DEFAULT_CEILING``, which runs ``errors``,
``sequences``, ``transforms`` and ``lattice``; ``tree`` and ``code`` add
``trees``, ``irreducibles`` adds ``irreducibility``, and only ``verify``
runs ``oracle`` and ``verify`` (``--property`` reads the check names when
argparse checks a value or prints them).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import errors, irreducibility, lattice, sequences, trees, verify

__all__ = ["main", "run"]


def _components(text: str) -> tuple[int, ...]:
    try:
        return sequences.parse_components(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> int:
    try:
        value = sequences._integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cmd_enumerate(args) -> int:
    if args.count:
        print(lattice.count_universe(args.n, args.ceiling))
        return 0
    universe = lattice.enumerate_universe(args.n, args.ceiling)
    if args.format == "json":
        import json

        payload = {"n": universe.n, "nodes": [list(el.components) for el in universe]}
        print(json.dumps(payload, separators=(", ", ": ")))
    else:
        for el in universe:
            print(sequences.format_sequence(el))
    return 0


def _pair(args) -> tuple:
    return sequences.validate(args.left), sequences.validate(args.right)


def _cmd_compare(args) -> int:
    print(sequences.compare(*_pair(args)).value)
    return 0


def _cmd_meet(args) -> int:
    print(sequences.format_sequence(lattice.meet(*_pair(args))))
    return 0


def _cmd_join(args) -> int:
    print(sequences.format_sequence(lattice.join(*_pair(args), args.ceiling)))
    return 0


def _cmd_hasse(args) -> int:
    universe = lattice.hasse(args.n, args.ceiling)
    if args.dot:
        Path(args.dot).write_text(lattice.hasse_dot(universe))
    if args.json or not args.dot:
        print(lattice.hasse_json(universe))
    return 0


def _cmd_irreducibles(args) -> int:
    universe = lattice.enumerate_universe(args.n, args.ceiling)
    tests = {
        "covers": irreducibility.is_join_irreducible_by_covers,
        "balancing": irreducibility.is_join_irreducible_by_balancing,
        "decomposition": irreducibility.is_join_irreducible_by_decomposition,
    }
    if args.method != "all":
        tests = {args.method: tests[args.method]}
    irreducible = []
    for el in universe:
        votes = {name: test(el) for name, test in tests.items()}
        if len(set(votes.values())) != 1:
            detail = ", ".join(f"{k}={v}" for k, v in votes.items())
            print(f"disagreement at {sequences.format_sequence(el)}: {detail}", file=sys.stderr)
            return 1
        if all(votes.values()):
            irreducible.append(el)
    for el in irreducible:
        print(sequences.format_sequence(el))
    return 0


def _cmd_balance(args) -> int:
    l = sequences.validate(args.sequence)
    if args.at is not None:
        print(sequences.format_sequence(lattice.balancing_step(l, args.at)))
    else:
        for j in lattice.excess_indices(l):
            print(f"{j} {sequences.format_sequence(lattice.balancing_step(l, j))}")
    return 0


def _cmd_tree(args) -> int:
    tree = trees.tree_from_sequence(sequences.validate(args.sequence))
    if args.dot:
        Path(args.dot).write_text(trees.tree_dot(tree))
    print(trees.tree_ascii(tree), end="")
    return 0


def _cmd_code(args) -> int:
    for word in trees.canonical_code(sequences.validate(args.sequence)):
        print(word)
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_checks(args.n, names=args.properties or None)
    for report in reports:
        print(report.to_json() if args.format == "json" else str(report))
    return 0 if all(r.passed for r in reports) else 1


class _CheckNames:
    """The names of ``verify.CHECKS`` in sorted order, read only when
    argparse checks a ``--property`` value or prints them, so building the
    parser runs no ``verify``."""

    def __contains__(self, name) -> bool:
        return name in verify.CHECKS

    def __iter__(self):
        return iter(sorted(verify.CHECKS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbalattice",
        description="Exact computations on the imbalance lattice of "
                    "binary-tree path-length sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        return cmd

    def add_ceiling(cmd):
        cmd.add_argument("--ceiling", type=_positive, default=lattice.DEFAULT_CEILING,
                         help="enumeration size ceiling (default %(default)s)")

    cmd = add("enumerate", _cmd_enumerate, "list every sequence of a given length")
    cmd.add_argument("n", type=_positive)
    cmd.add_argument("--count", action="store_true", help="print only the count")
    cmd.add_argument("--format", choices=("lines", "json"), default="lines")
    add_ceiling(cmd)

    cmd = add("compare", _cmd_compare, "compare two sequences in the balance order")
    cmd.add_argument("left", type=_components)
    cmd.add_argument("right", type=_components)

    cmd = add("meet", _cmd_meet, "greatest lower bound of two sequences")
    cmd.add_argument("left", type=_components)
    cmd.add_argument("right", type=_components)

    cmd = add("join", _cmd_join, "least upper bound of two sequences")
    cmd.add_argument("left", type=_components)
    cmd.add_argument("right", type=_components)
    add_ceiling(cmd)

    cmd = add("hasse", _cmd_hasse, "covering structure as JSON and optional DOT")
    cmd.add_argument("n", type=_positive)
    cmd.add_argument("--json", action="store_true",
                     help="print JSON even when --dot is given")
    cmd.add_argument("--dot", metavar="PATH", help="write a Graphviz file here")
    add_ceiling(cmd)

    cmd = add("irreducibles", _cmd_irreducibles, "join-irreducible elements")
    cmd.add_argument("n", type=_positive)
    cmd.add_argument("--method", default="all",
                     choices=("covers", "balancing", "decomposition", "all"),
                     help="'all' cross-checks the three tests (default)")
    add_ceiling(cmd)

    cmd = add("balance", _cmd_balance, "balancing moves available at a sequence")
    cmd.add_argument("sequence", type=_components)
    cmd.add_argument("--at", type=_positive, metavar="J",
                     help="apply only the move at excess index J")

    cmd = add("tree", _cmd_tree, "render the canonical tree")
    cmd.add_argument("sequence", type=_components)
    cmd.add_argument("--dot", metavar="PATH", help="write a Graphviz file here")

    cmd = add("code", _cmd_code, "canonical prefix code, one codeword per line")
    cmd.add_argument("sequence", type=_components)

    cmd = add("verify", _cmd_verify, "run the law suite up to a given length")
    cmd.add_argument("n", type=_positive)
    cmd.add_argument("--property", dest="properties", action="append",
                     choices=_CheckNames(), metavar="NAME",
                     help="run only the named checks (repeatable); "
                          "one of: %(choices)s")
    cmd.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except errors.ImbalatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Run the command line; a write that fails ends it with exit 1 and no
    traceback.

    A failed write to a file or to stdout (``tree 1,1 --dot /tmp``, or
    ``enumerate 5 > /dev/full``) prints one ``error:`` line on stderr.
    ``imbalattice enumerate 16 | head -1`` closes the pipe early; the
    reader is gone, so that ends quietly.  Either way output that is not
    yet written is dropped: stdout is pointed at ``os.devnull``, so the
    flush at interpreter exit cannot raise again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
