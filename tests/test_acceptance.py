"""Acceptance gate: every criterion exact (tolerance zero), desk scale.

Each test prints one pass line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The exhaustive
sweeps are the law checks of ``imbalattice.verify``, run through
``run_checks`` at the bounds below (the ``holds`` fixture); the pinned
counts, sets and worked examples are stated here directly.
``test_cli.py::TestVerifyCommand`` plants a wrong meet to show that a
failing law reaches the report.
"""

from imbalattice import (
    OrderVerdict,
    compare,
    covering_pairs,
    enumerate_by_partition,
    enumerate_universe,
    is_join_irreducible_by_covers,
    join,
    leq,
    meet,
    minimal_balancing_relation,
    validate,
)


def seq(*components):
    return validate(components)


def ordered_pairs(n):
    pool = enumerate_universe(n).elements
    for a in pool:
        for b in pool:
            yield a, b


def report(number, text):
    print(f"criterion {number:2d}: pass -- {text}")


def test_criterion_01_enumeration_equivalence(holds):
    holds(12, "enumeration-oracle")
    oracle_counts = [len(enumerate_by_partition(n)) for n in range(1, 11)]
    assert oracle_counts == [1, 1, 1, 2, 3, 5, 9, 16, 28, 50]
    assert [len(enumerate_universe(n)) for n in range(1, 11)] == oracle_counts
    report(1, "both enumerations agree for n=1..12; counts 1,1,1,2,3,5,9,16,28,50")


def test_criterion_02_lattice_bounds_exist_uniquely(holds):
    holds(10, "lattice-bounds-unique")  # NotALattice must never fire
    report(2, "unique brute-force GLB and LUB for every pair, n<=10")


def test_criterion_03_recursive_meet_and_last_law(holds):
    holds(9, "meet-oracle-agreement", "meet-last-law")
    report(3, "meet and join equal brute force and last(meet)=min(lasts), n<=9")


def test_criterion_04_upper_expansion_below_lower_expansion(holds):
    holds(9, "upper-lower-expansion")
    report(4, "l below h with smaller last depth forces l+ below h's lower expansion, n<=9")


def test_criterion_05_expansion_monotonicity(holds):
    holds(9, "expansion-monotonicity")
    report(5, "both expansions preserve the order, n<=9")


def test_criterion_06_contraction_sandwich(holds):
    holds(10, "contraction-sandwich")
    report(6, "contraction sandwich holds for all l, 2<=n<=10")


def test_criterion_07_balancing_closure_and_covering(holds):
    holds(8, "closure-equals-order", "covering-within-balancing")
    step = ((1, 3, 3, 4, 4, 4, 4), (1, 2, 4, 4, 4, 5, 5))
    seven_steps = {
        (s.target.components, s.source.components)
        for s in minimal_balancing_relation(7)
    }
    seven_covers = {
        (a.components, b.components) for a, b in covering_pairs(7)
    }
    assert step in seven_steps and step not in seven_covers
    between = seq(1, 3, 3, 3, 4, 5, 5)
    assert leq(seq(*step[0]), between) and between != seq(*step[0])
    assert leq(between, seq(*step[1])) and between != seq(*step[1])
    report(7, "closure of balancing equals the order and contains covering, n<=8; "
              "containment proper at n=7")


def test_criterion_08_irreducibility_triple_agreement(holds):
    holds(9, "irreducibility-triple-agreement")
    universe = enumerate_universe(7)
    irreducible = [l for l in universe if is_join_irreducible_by_covers(l)]
    assert len(irreducible) == 7
    excluded = {l.components for l in universe} - {l.components for l in irreducible}
    assert excluded == {(2, 3, 3, 3, 3, 3, 3), (1, 3, 3, 3, 4, 5, 5)}
    report(8, "three irreducibility tests agree, n<=9; 7 of 9 irreducible at n=7")


def test_criterion_09_monotone_tree_parameters(holds):
    holds(8, "monotone-parameters")
    report(9, "component sum strictly increases and depth-budget node count "
              "is antitone, n<=8")


def test_criterion_10_kraft_realization(holds):
    holds(10, "kraft-realization")
    report(10, "canonical codes are prefix-free with exact lengths and round "
               "trips are identities for n<=10")


def test_criterion_11_worked_pair_and_small_chains():
    s, t = seq(2, 2, 2, 3, 4, 5, 5), seq(1, 3, 3, 4, 4, 4, 4)
    assert compare(s, t) is OrderVerdict.INCOMPARABLE
    assert meet(s, t) == seq(2, 2, 2, 4, 4, 4, 4)
    assert join(s, t) == seq(1, 3, 3, 3, 4, 5, 5)
    for n in range(1, 7):
        for a, b in ordered_pairs(n):
            assert leq(a, b) or leq(b, a)
    report(11, "worked incomparable pair has the stated meet and join; "
               "the order is a chain for n<=6")
