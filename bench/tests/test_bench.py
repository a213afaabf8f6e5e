"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

They check the seeded generators, the metric tables against
``BENCHMARK.json``, the output checker's handling of wrong answers, and
the span tracer.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, merge, read_spans  # noqa: E402

il = workloads.import_program()

NAMED_END_TO_END = {
    "setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s",
    "enumerate_s", "hasse_s", "irreducibles_s", "verify_s", "peak_rss_mb",
}
NAMED_PER_LAYER = {
    "lattice.join.self_s", "lattice.join.leq_per_call", "lattice.join.meet_per_call",
    "lattice.meet.calls", "lattice.meet.self_s",
    "transforms.expansion.calls", "transforms.expansion.self_s",
    "transforms.contraction.calls", "transforms.contraction.self_s",
    "sequences.validate.calls", "sequences.validate.self_s",
    "sequences.leq.calls", "sequences.leq.self_s", "sequences.compare.self_s",
    "lattice.enumerate_universe.self_s", "lattice.hasse.self_s", "lattice.hasse.cover_edges",
    "irreducibility.by_covers.self_s", "irreducibility.by_covers.leq_per_call",
    "irreducibility.by_balancing.self_s", "irreducibility.by_decomposition.self_s",
    "lattice.balancing.calls", "lattice.balancing.self_s", "trees.self_s",
    "oracle.enumerate_by_partition.self_s", "oracle.bruteforce.self_s",
    "oracle.closure_equals_order.self_s", "oracle.leq_by_definition.calls",
    "cli.main.self_s", "trace.overhead_s",
}


@pytest.mark.parametrize(
    "stream", [inputs.pair_stream, inputs.deep_stream, inputs.one_shot_stream]
)
def test_generator_is_deterministic_for_a_seed(stream):
    first = list(islice(stream(7), 30))
    assert first == list(islice(stream(7), 30))
    assert first != list(islice(stream(8), 30))


def test_generated_inputs_are_valid_sequences():
    assert [len(inputs.universe(n)) for n in range(1, 11)] == [1, 1, 1, 2, 3, 5, 9, 16, 28, 50]
    assert len(inputs.universe(inputs.PAIR_N)) == 510
    for a, b in islice(inputs.deep_stream(3), 12):
        assert len(a) == len(b) and len(a) in inputs.DEEP_SIZES
        il.validate(a)
        il.validate(b)


def test_pair_ranking_orders_pairs_by_common_upper_bounds():
    pool = inputs.universe(inputs.PAIR_N)
    ranked = inputs.pairs_by_upper_bounds(inputs.PAIR_N)
    assert sorted(ranked) == list(range(len(pool) ** 2))
    seqs = [il.validate(c) for c in pool]

    def uppers(index):
        i, j = divmod(index, len(pool))
        return sum(il.leq(seqs[i], u) and il.leq(seqs[j], u) for u in seqs)

    counts = [uppers(ranked[k]) for k in range(0, len(ranked), len(ranked) // 40)]
    assert counts == sorted(counts) and counts[0] < counts[-1]


def test_streams_draw_stratified_blocks():
    pool = inputs.universe(inputs.PAIR_N)
    ranked = inputs.pairs_by_upper_bounds(inputs.PAIR_N)
    block = list(islice(inputs.pair_stream(4), inputs.BLOCK))
    slices = sorted(
        ranked.index(pool.index(a) * len(pool) + pool.index(b)) * inputs.BLOCK // len(ranked)
        for a, b in block
    )
    assert slices == list(range(inputs.BLOCK))
    deep = islice(inputs.deep_stream(4), len(inputs.DEEP_SIZES) * inputs.BLOCK)
    assert Counter(len(a) for a, _ in deep) == {n: inputs.BLOCK for n in inputs.DEEP_SIZES}


@pytest.mark.parametrize("workload", ["pair-queries", "deep-sequences"])
def test_warm_up_pair_is_seeded(workload):
    a, b = inputs.warm_up_pair(workload, 3)
    assert (a, b) == inputs.warm_up_pair(workload, 3)
    il.validate(a)
    il.validate(b)


def test_one_shot_references_cover_every_drawable_call():
    reference = workloads.load_reference()
    for argv in [*inputs.all_one_shots(), *inputs.HEAVY_COMMANDS]:
        assert " ".join(argv) in reference
    assert reference["enumerate 18 --count"] == f"{workloads.ENUMERATE_18_COUNT}\n"


def test_every_metric_appears_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert set(end_to_end) == NAMED_END_TO_END
    checks = {f"verify.{name}.s" for name in il.CHECKS}
    assert set(per_layer) == NAMED_PER_LAYER | checks
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    metrics = run.layer_metrics(merge([]), 0.5)
    lines = run.report(metrics, per_layer, run.Tally())
    printed = json.loads(lines[-1])["metrics"]
    assert {name: m["unit"] for name, m in printed.items()} == per_layer
    for name, unit in per_layer.items():
        assert f"{name} {metrics[name]!r} {unit}" in lines
    assert lines[-2].startswith("failed_share 0.0 share")


def _pair_record(a, b):
    return workloads.pair_record(a, b, workloads.pair_query(il, a, b))


def test_wrong_pair_answer_counts_as_failed():
    pool = inputs.universe(inputs.PAIR_N)
    a, b = pool[17], pool[400]
    right = _pair_record(a, b)
    inputs_ok, verdict, low, high = right
    wrong_meet = (inputs_ok, verdict, high, high)
    wrong_verdict = (inputs_ok, "equal", low, high)
    records = [(a, b, right), (a, b, wrong_meet), (a, b, wrong_verdict), (a, b, None)]
    assert workloads.count_failures(il, "pair-queries", records) == 3


def test_wrong_deep_answer_counts_as_failed():
    a, b = next(inputs.deep_stream(5))
    right = workloads.deep_record(a, b, workloads.deep_query(il, a, b))
    shape_ok, verdict, low = right
    assert shape_ok
    records = [
        (a, b, right),
        (a, b, (shape_ok, verdict, a if tuple(low) != a else b)),
        (a, b, (False, verdict, low)),
        (a, b, (shape_ok, "equal", low)),
    ]
    assert workloads.count_failures(il, "deep-sequences", records) == 3


def test_raised_query_counts_as_failed():
    elapsed, record = workloads.timed_query(il, "pair-queries", (1, 1), (1, 2, 2))
    assert elapsed >= 0 and record is None
    assert workloads.count_failures(il, "pair-queries", [((1, 1), (1, 2, 2), record)]) == 1


def test_wrong_cli_output_counts_as_failed():
    reference = workloads.load_reference()
    argv = ("code", "1,2,3,4,4")
    good = reference[" ".join(argv)]
    assert workloads.cli_output_ok(reference, argv, 0, good)
    assert not workloads.cli_output_ok(reference, argv, 0, good + "\n")
    assert not workloads.cli_output_ok(reference, argv, 1, good)
    argv = ("enumerate", "18", "--count")
    assert not workloads.cli_output_ok({"enumerate 18 --count": "5270\n"}, argv, 0, "5270\n")


def test_tracer_self_time_and_restore(tmp_path):
    import imbalattice.cli  # noqa: F401  (so cli.main is traced too)
    import imbalattice.lattice as lattice

    original_meet, original_leq = lattice.meet, lattice.leq
    tracer = Tracer()
    missing = tracer.install()
    try:
        assert missing == []
        assert lattice.meet is not original_meet and lattice.leq is not original_leq
        s, t = il.validate((1, 3, 3, 3, 3)), il.validate((2, 2, 2, 3, 3))
        il.join(s, t)
    finally:
        tracer.uninstall()
    assert lattice.meet is original_meet and lattice.leq is original_leq
    assert all(not hasattr(check, "__wrapped__") for check in il.CHECKS.values())

    summary = tracer.summary()
    tracer.write(tmp_path / "t.spans")
    names, rows = read_spans(tmp_path / "t.spans")
    assert len(rows) == sum(summary["calls"].values())
    (join_row,) = [i for i, row in enumerate(rows) if row[0] == "lattice.join"]
    children = [row for row in rows if row[1] == join_row]
    duration = rows[join_row][3] - rows[join_row][2]
    covered = sum(end - start for _, _, start, end in children)
    assert summary["self_s"]["lattice.join"] == pytest.approx(duration - covered)
    assert {row[0] for row in children} >= {"sequences.leq", "lattice.meet"}
    edges = {(a, b): n for a, b, n in summary["edges"]}
    assert edges["lattice.join", "sequences.leq"] == sum(
        1 for row in children if row[0] == "sequences.leq")
