"""Randomized laws complementing the exhaustive desk-scale sweeps."""

import operator
import random
from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from imbalattice import (
    KraftSumNotOne,
    NegativeDepth,
    NotSorted,
    OrderVerdict,
    bottom,
    canonical_code,
    compare,
    contraction,
    count_universe,
    enumerate_universe,
    expansion_at,
    leaf_codewords,
    leq,
    leq_by_definition,
    lower_expansion,
    meet,
    suffix_length,
    sequence_from_tree,
    top,
    tree_from_sequence,
    upper_expansion,
    validate,
)
from imbalattice.lattice import _unrank

depth_lists = st.lists(st.integers(min_value=-2, max_value=10), min_size=1, max_size=9)


def element_of(n):
    return st.sampled_from(enumerate_universe(n).elements)


elements = st.integers(1, 8).flatmap(element_of)
grown_elements = st.integers(2, 9).flatmap(element_of)
same_length_pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(element_of(n), element_of(n))
)


def accepted_by_definition(parts):
    return (
        all(p >= 0 for p in parts)
        and list(parts) == sorted(parts)
        and sum(Fraction(1, 2**p) for p in parts) == 1
    )


@given(depth_lists)
def test_validate_agrees_with_the_definition(parts):
    try:
        validate(parts)
        accepted = True
    except (NegativeDepth, NotSorted, KraftSumNotOne):
        accepted = False
    assert accepted == accepted_by_definition(parts)


@given(same_length_pairs)
def test_compare_mirrors(pair):
    a, b = pair
    mirror = {
        OrderVerdict.EQUAL: OrderVerdict.EQUAL,
        OrderVerdict.MORE_BALANCED: OrderVerdict.LESS_BALANCED,
        OrderVerdict.LESS_BALANCED: OrderVerdict.MORE_BALANCED,
        OrderVerdict.INCOMPARABLE: OrderVerdict.INCOMPARABLE,
    }
    assert compare(b, a) == mirror[compare(a, b)]


@given(same_length_pairs, st.integers(0, 6))
def test_compare_scale_independent(pair, extra):
    a, b = pair
    scale = max(a.last, b.last) + extra
    assert compare(a, b, scale=scale) == compare(a, b)


@given(same_length_pairs)
def test_fast_order_matches_definition_order(pair):
    a, b = pair
    assert leq(a, b) == leq_by_definition(a, b)


@given(same_length_pairs)
def test_meet_is_a_commutative_lower_bound(pair):
    a, b = pair
    low = meet(a, b)
    assert low == meet(b, a)
    assert leq(low, a) and leq(low, b)
    assert low.last == min(a.last, b.last)


def seeded_split(n, seed):
    """A length-n sequence grown from one leaf by n - 1 seeded leaf splits."""
    rng = random.Random(seed)
    depths = [0]
    for _ in range(n - 1):
        depth = depths.pop(rng.randrange(len(depths)))
        depths += [depth + 1, depth + 1]
    return validate(sorted(depths))


def large_element(n):
    """One length-n element from one drawn integer, so failures shrink fast.

    Uniform elements, unranked from a drawn index, are deep (median ``last``
    about 140 at n = 256); random splits are balanced (median ``last`` about
    16).  Drawing both keeps either shape family in play.
    """
    return st.one_of(
        st.integers(0, count_universe(n, n) - 1).map(lambda r: validate(_unrank(n, r))),
        st.integers(0, 2**32 - 1).map(lambda seed: seeded_split(n, seed)),
    )


deep_pairs = st.integers(16, 128).flatmap(
    lambda n: st.tuples(large_element(n), large_element(n))
)


@settings(max_examples=50)
@given(deep_pairs)
def test_meet_of_random_splits_is_a_valid_lower_bound(pair):
    a, b = pair
    low = meet(a, b)
    assert leq_by_definition(low, a) and leq_by_definition(low, b)
    assert low.last == min(a.last, b.last)
    assert validate(low.components) == low


wide_pairs = st.integers(16, 256).flatmap(
    lambda n: st.tuples(large_element(n), large_element(n))
)


@settings(max_examples=30, deadline=None)
@given(wide_pairs)
def test_meet_matches_the_scanning_recursion(meet_by_scanning, pair):
    a, b = pair
    assert meet(a, b) == meet_by_scanning(a, b)


@settings(max_examples=50)
@given(st.integers(16, 256).flatmap(large_element))
def test_tree_leaves_are_the_canonical_code(l):
    assert leaf_codewords(tree_from_sequence(l)) == canonical_code(l)


def rational_sums(l):
    return list(accumulate(Fraction(1, 2**d) for d in l.components))


unequal_depth_pairs = st.integers(64, 256).flatmap(
    lambda n: st.tuples(large_element(n), large_element(n))
).filter(lambda pair: pair[0].last != pair[1].last)


@settings(max_examples=50)
@given(unequal_depth_pairs)
def test_definition_order_matches_rational_partial_sums(pair):
    a, b = pair
    n = len(a)
    sums = {l: rational_sums(l) for l in (a, b, bottom(n), top(n))}
    for l, h in ((a, b), (b, a), (bottom(n), a), (a, top(n))):
        assert leq_by_definition(l, h) == all(map(operator.le, sums[l], sums[h]))


@given(elements, st.data())
def test_expansion_grows_by_one_anywhere(l, data):
    position = data.draw(st.integers(1, len(l)))
    grown = expansion_at(l, position)
    assert len(grown) == len(l) + 1


@given(grown_elements)
def test_contraction_round_trip_and_sandwich(l):
    squeezed = contraction(l)
    assert expansion_at(squeezed, len(l) - suffix_length(l) + 1) == l
    assert leq(lower_expansion(squeezed), l)
    assert leq(l, upper_expansion(squeezed))


@given(elements)
def test_canonical_code_realizes_the_sequence(l):
    code = canonical_code(l)
    assert tuple(len(w) for w in code) == l.components
    assert all(a == b or not b.startswith(a) for a in code for b in code)
    assert sequence_from_tree(tree_from_sequence(l)) == l
