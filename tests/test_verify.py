"""The law suite's runner: one memo per size, shared by the checks that ask
for the same order, meet, join, oracle bounds or per-element value, and
pinned output."""

import hashlib
from collections import Counter

import pytest

import imbalattice.verify
from imbalattice import NotALattice, bottom, validate
from imbalattice.cli import main
from imbalattice.verify import CHECKS, run_checks


def counting(monkeypatch, name):
    """Replace ``imbalattice.verify.<name>`` by a wrapper that counts its
    calls by the size being run and their first two arguments (a sequence
    by its components); returns the counter."""
    original = getattr(imbalattice.verify, name)
    universe = imbalattice.verify.enumerate_universe
    size = [0]
    calls = Counter()

    def sized(n, *rest):
        size[0] = n
        return universe(n, *rest)

    def counted(*args):
        calls[(size[0], *(getattr(a, "components", a) for a in args[:2]))] += 1
        return original(*args)

    monkeypatch.setattr(imbalattice.verify, "enumerate_universe", sized)
    monkeypatch.setattr(imbalattice.verify, name, counted)
    return calls


def own(calls, arity):
    """How many of the counted calls took, as their first ``arity``
    arguments, elements of the size being run."""
    return sum(k for (n, *args), k in calls.items() if all(len(a) == n for a in args[:arity]))


def failures(reports):
    return {r.property: r.witness for r in reports if r.status == "fail"}


def test_a_full_run_asks_each_join_and_bound_once(monkeypatch):
    joins = counting(monkeypatch, "join")
    lows = counting(monkeypatch, "meet_bruteforce")
    highs = counting(monkeypatch, "join_bruteforce")
    reports = run_checks(8)
    assert all(r.passed for r in reports)
    assert (sum(joins.values()), len(joins)) == (378, 378)
    assert (sum(lows.values()), len(lows)) == (208, 208)
    assert (sum(highs.values()), len(highs)) == (208, 208)


def test_a_full_run_asks_each_meet_once(monkeypatch):
    meets = counting(monkeypatch, "meet")
    assert all(r.passed for r in run_checks(8))
    assert (sum(meets.values()), len(meets)) == (378, 378)


def test_per_element_values_are_computed_once_per_size(monkeypatch):
    sums = counting(monkeypatch, "scaled_partial_sums")
    (report,) = run_checks(6, ["scale-independence"])
    assert report.passed
    assert max(sums.values()) == 1


def test_a_full_run_asks_each_order_and_element_fact_once(monkeypatch):
    names = [
        "leq",
        "lower_expansion",
        "upper_expansion",
        "contraction",
        "is_join_irreducible_by_covers",
        "minimal_balancing_relation",
    ]
    calls = {name: counting(monkeypatch, name) for name in names}
    assert all(r.passed for r in run_checks(8))
    # order_masks asks each of the 378 ordered pairs once; contraction-sandwich
    # (74) and balancing-step-decrement (42) compare values they build
    assert own(calls["leq"], 2) <= 378 + 74 + 42
    for name, expected in zip(names[1:5], (38, 38, 37, 38)):
        assert own(calls[name], 1) == expected, name
        assert max(calls[name].values()) == 1, name
    assert calls["minimal_balancing_relation"] == {(n, n): 1 for n in range(1, 9)}


# join(A, B) is wrong for one incomparable pair of length 7.
PLANTED = (validate((1, 3, 3, 4, 4, 4, 4)), validate((2, 2, 2, 3, 4, 5, 5)))


def plant_wrong_join(monkeypatch):
    original = imbalattice.verify.join

    def planted(s, t):
        return bottom(len(s)) if (s, t) == PLANTED else original(s, t)

    monkeypatch.setattr(imbalattice.verify, "join", planted)


def test_a_wrong_join_gives_the_same_witness_in_a_full_run(monkeypatch):
    plant_wrong_join(monkeypatch)
    expected = {
        "meet-oracle-agreement": "join(1,3,3,4,4,4,4, 2,2,2,3,4,5,5)",
        "join-absorption": "meet-absorb: 1,3,3,4,4,4,4, 2,2,2,3,4,5,5",
    }
    assert failures(run_checks(8)) == expected
    for name, witness in expected.items():
        assert failures(run_checks(8, [name])) == {name: witness}


def test_a_wrong_meet_gives_the_same_witness_in_a_full_run(monkeypatch):
    original = imbalattice.verify.meet

    def planted(s, t):
        return s if (s, t) == PLANTED else original(s, t)

    monkeypatch.setattr(imbalattice.verify, "meet", planted)
    expected = {
        "meet-oracle-agreement": "meet(1,3,3,4,4,4,4, 2,2,2,3,4,5,5)",
        "meet-semilattice-laws": "not commutative: 1,3,3,4,4,4,4, 2,2,2,3,4,5,5",
    }
    assert failures(run_checks(8)) == expected
    for name, witness in expected.items():
        assert failures(run_checks(8, [name])) == {name: witness}


def test_a_wrong_leq_gives_the_same_witness_in_a_full_run(monkeypatch):
    original = imbalattice.verify.leq

    def planted(s, t):
        return (s, t) == PLANTED or original(s, t)

    monkeypatch.setattr(imbalattice.verify, "leq", planted)
    pair = "1,3,3,4,4,4,4, 2,2,2,3,4,5,5"
    expected = {
        "expansion-monotonicity": f"lower fails: {pair}",
        "upper-lower-expansion": "1,3,3,4,4,4,4 vs 2,2,2,3,4,5,5",
        "meet-semilattice-laws": f"not greatest: {pair}, 1,3,3,4,4,4,4",
        "monotone-parameters": f"sum not strict: {pair}",
    }
    assert failures(run_checks(8)) == expected
    for name, witness in expected.items():
        assert failures(run_checks(8, [name])) == {name: witness}


def test_nothing_is_cached_across_runs(monkeypatch):
    assert all(r.passed for r in run_checks(8))
    plant_wrong_join(monkeypatch)
    assert set(failures(run_checks(8))) == {"meet-oracle-agreement", "join-absorption"}


def test_an_oracle_error_reaches_every_check_that_asks(monkeypatch):
    def no_unique_bound(s, t, universe):
        raise NotALattice(f"lower bounds of {s} and {t} have no unique maximum")

    monkeypatch.setattr(imbalattice.verify, "meet_bruteforce", no_unique_bound)
    witness = "NotALattice: lower bounds of 0 and 0 have no unique maximum"
    assert failures(run_checks(4)) == {
        "lattice-bounds-unique": witness,
        "meet-oracle-agreement": witness,
    }


def test_a_bare_string_of_names_is_refused():
    with pytest.raises(TypeError, match="list of check names"):
        run_checks(4, "meet-last-law")
    (report,) = run_checks(4, ["meet-last-law"])
    assert report.passed


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "10"], "80ba1a76b29109fb7f48ad4e970b6cb7cb6de88fd74b66f0053a02c9ad6b72f4"),
        (
            ["verify", "5", "--format", "json"],
            "01bce93cfd887c1427cbdddfec5461d0bfbbd46a4d88970ffc19892c3b401883",
        ),
    ],
    ids=" ".join,
)
def test_output_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == len(CHECKS)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
