import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import imbalattice
import imbalattice.sequences
import imbalattice.trees
from imbalattice import (
    KraftSumNotOne,
    LengthMismatch,
    NegativeDepth,
    NotSorted,
    OrderVerdict,
    ScaleTooSmall,
    SequenceError,
    canonical_code,
    compare,
    count_universe,
    enumerate_universe,
    format_sequence,
    leq,
    leq_by_definition,
    parse_components,
    scaled_partial_sums,
    suffix_length,
    validate,
)
from imbalattice.lattice import _unrank
from imbalattice.sequences import _weights


def seq(*components):
    return validate(components)


class TestValidate:
    def test_single_leaf(self):
        assert seq(0).components == (0,)

    def test_five_components(self):
        assert seq(1, 2, 3, 4, 4).components == (1, 2, 3, 4, 4)

    def test_kraft_excess_reports_exact_sum(self):
        with pytest.raises(KraftSumNotOne) as info:
            seq(1, 2, 2, 3)
        assert info.value.kraft_sum == Fraction(9, 8)
        assert info.value.deficit == Fraction(-1, 8)

    def test_kraft_deficit_reports_exact_sum(self):
        with pytest.raises(KraftSumNotOne) as info:
            seq(2, 2, 2)
        assert info.value.kraft_sum == Fraction(3, 4)
        assert info.value.deficit == Fraction(1, 4)

    def test_depth_beyond_length_is_rejected_before_the_sum(self):
        with pytest.raises(KraftSumNotOne) as info:
            seq(1, 10**6)
        message = str(info.value)
        assert "\n" not in message and len(message) < 100
        assert info.value.kraft_sum == Fraction(1, 2) + Fraction(1, 2**10**6)
        assert info.value.deficit == Fraction(1, 2) - Fraction(1, 2**10**6)

    def test_long_invalid_input_gets_a_short_message(self):
        parts = tuple(range(1, 70)) + (69, 69)
        with pytest.raises(KraftSumNotOne) as info:
            validate(parts)
        assert len(str(info.value)) < 150
        assert info.value.kraft_sum == 1 + Fraction(1, 2**69)
        with pytest.raises(NotSorted) as info:
            validate(tuple(range(500, 0, -1)))
        assert len(str(info.value)) < 150

    def test_not_sorted(self):
        with pytest.raises(NotSorted):
            seq(2, 1, 1)

    def test_negative_depth(self):
        with pytest.raises(NegativeDepth):
            seq(-1, 1)

    def test_empty(self):
        with pytest.raises(SequenceError):
            validate(())

    def test_single_nonzero_fails_kraft(self):
        with pytest.raises(KraftSumNotOne):
            seq(3)

    def test_accepts_any_iterable(self):
        assert validate([1, 1]) == validate((1, 1))

    def test_depth_bound(self):
        # Kraft equality alone caps the depth at n - 1.
        for n in range(1, 10):
            for l in enumerate_universe(n):
                assert l.last <= n - 1 or n == 1 and l.last == 0


def outcome(c):
    """What ``validate`` answers: the components, or the error and its text."""
    try:
        return validate(c).components
    except SequenceError as exc:
        return type(exc), str(exc)


def outcome_by_weights(c):
    """The same answer for a sorted, nonnegative ``c``, with the Kraft test
    as the sum of the weights at the deepest scale."""
    scale = c[-1]
    if scale < len(c) and sum(_weights(c, scale)) == 1 << scale:
        return c
    return KraftSumNotOne, str(KraftSumNotOne(c))


@st.composite
def perturbed(draw):
    """An element with n <= 64 with one component moved by 1, dropped or
    added, sorted again."""
    n = draw(st.integers(1, 64))
    c = list(_unrank(n, draw(st.integers(0, count_universe(n, n) - 1))))
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["move", "drop", "add"]))
    if kind == "move":
        c[i] = max(0, c[i] + draw(st.sampled_from([-1, 1])))
    elif kind == "drop" and n > 1:
        del c[i]
    else:
        c.append(draw(st.integers(0, n)))
    return tuple(sorted(c))


class TestKraftByCarries:
    def test_every_element_up_to_16(self):
        for n in range(1, 17):
            for l in enumerate_universe(n):
                assert outcome(l.components) == outcome_by_weights(l.components)

    def test_small_rejections(self):
        for c in [(0, 1), (1, 1, 1), (1, 2, 2, 2), (1, 3, 3), (2, 2, 2, 2, 2)]:
            assert outcome(c) == outcome_by_weights(c)
            assert outcome(c)[0] is KraftSumNotOne

    @given(perturbed())
    def test_perturbations_agree_with_the_weights(self, c):
        assert outcome(c) == outcome_by_weights(c)

    def test_a_deep_caterpillar_validates_in_linear_time(self):
        # summing the weights of top(n) takes time quadratic in n: tens of
        # seconds at n = 10**6
        code = "from imbalattice import top, validate; validate(top(10**6).components)"
        env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=30
        )
        assert (done.returncode, done.stderr) == (0, b"")


class TestTextSyntax:
    def test_parse(self):
        assert parse_components("1,2,3,4,4") == (1, 2, 3, 4, 4)

    def test_round_trip(self):
        assert format_sequence(seq(1, 2, 3, 4, 4)) == "1,2,3,4,4"
        assert str(seq(0)) == "0"

    @pytest.mark.parametrize("text", ["", "1,,2", "1, 2", "a,b", "1;2", "１,１", "²"])
    def test_rejects_junk(self, text):
        with pytest.raises(ValueError, match="empty sequence text|not a comma-separated"):
            parse_components(text)

    def test_parse_is_not_validation(self):
        # a parseable but invalid sequence fails only at validate()
        parts = parse_components("2,1,1")
        with pytest.raises(NotSorted):
            validate(parts)


class TestSuffixLength:
    @pytest.mark.parametrize(
        "components, expected",
        [((1, 2, 3, 4, 4), 2), ((2, 2, 2, 2), 4), ((1, 3, 3, 3, 3), 4), ((0,), 1)],
    )
    def test_examples(self, components, expected):
        assert suffix_length(validate(components)) == expected

    def test_even_for_multi_component(self):
        for n in range(2, 10):
            for l in enumerate_universe(n):
                assert suffix_length(l) % 2 == 0


class TestScaledPartialSums:
    def test_pair(self):
        assert scaled_partial_sums(seq(1, 1), 1).sums == (1, 2)

    def test_five_at_eighth_scale(self):
        assert scaled_partial_sums(seq(2, 2, 2, 3, 3), 3).sums == (2, 4, 6, 7, 8)

    def test_caterpillar_at_sixteenth_scale(self):
        assert scaled_partial_sums(seq(1, 2, 3, 4, 4), 4).sums == (8, 12, 14, 15, 16)

    def test_default_scale_is_last(self):
        witness = scaled_partial_sums(seq(2, 2, 2, 3, 3))
        assert witness.scale_exponent == 3

    def test_scale_too_small(self):
        with pytest.raises(ScaleTooSmall):
            scaled_partial_sums(seq(1, 2, 3, 4, 4), 3)

    def test_strictly_increasing_and_kraft_tail(self):
        for n in range(1, 9):
            for l in enumerate_universe(n):
                witness = scaled_partial_sums(l, l.last + 2)
                assert list(witness.sums) == sorted(set(witness.sums))
                assert witness.sums[-1] == 1 << witness.scale_exponent


class TestCompare:
    def test_equal(self):
        l = seq(1, 2, 3, 4, 4)
        assert compare(l, l) is OrderVerdict.EQUAL

    def test_more_balanced(self):
        assert compare(seq(2, 2, 2, 3, 3), seq(1, 3, 3, 3, 3)) is OrderVerdict.MORE_BALANCED

    def test_less_balanced_mirror(self):
        assert compare(seq(1, 3, 3, 3, 3), seq(2, 2, 2, 3, 3)) is OrderVerdict.LESS_BALANCED

    def test_incomparable(self):
        assert (
            compare(seq(2, 2, 2, 3, 4, 5, 5), seq(1, 3, 3, 4, 4, 4, 4))
            is OrderVerdict.INCOMPARABLE
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compare(seq(0), seq(1, 1))
        with pytest.raises(LengthMismatch):
            leq(seq(0), seq(1, 1))

    def test_leq_matches_compare(self):
        for n in range(1, 9):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    expected = compare(a, b) in (OrderVerdict.EQUAL, OrderVerdict.MORE_BALANCED)
                    assert leq(a, b) == expected

    def test_agrees_with_the_definition_both_ways(self):
        verdicts = {
            (True, True): OrderVerdict.EQUAL,
            (True, False): OrderVerdict.MORE_BALANCED,
            (False, True): OrderVerdict.LESS_BALANCED,
            (False, False): OrderVerdict.INCOMPARABLE,
        }
        for n in range(1, 11):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    expected = verdicts[leq_by_definition(a, b), leq_by_definition(b, a)]
                    assert compare(a, b) is expected

    def test_scale_independence(self):
        for n in range(1, 9):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    base = max(a.last, b.last)
                    for extra in (1, 3, 7):
                        assert compare(a, b, scale=base + extra) == compare(a, b)

    def test_scale_too_small_names_the_first_offending_argument(self):
        deep, shallow = seq(1, 2, 3, 4, 4), seq(2, 2, 2, 3, 3)
        for l, h, scale, last in [
            (deep, shallow, 3, 4),
            (shallow, deep, 3, 4),
            (deep, shallow, 2, 4),
            (shallow, deep, 2, 3),
        ]:
            message = f"^scale {scale} is below last component {last}$"
            with pytest.raises(ScaleTooSmall, match=message):
                compare(l, h, scale=scale)


class TestOneHomeForTheWeights:
    def test_only_the_order_test_adds_weights_inline(self, monkeypatch):
        pool = [l for n in range(1, 8) for l in enumerate_universe(n)]
        l = seq(1, 2, 3, 4, 4)

        def answers():
            return [
                (
                    leq(a, b),
                    compare(a, b),
                    compare(a, b, max(a.last, b.last) + 2),
                    leq_by_definition(a, b),
                )
                for a in pool
                for b in pool
                if len(a) == len(b)
            ]

        expected = answers()

        def no_weights(*args):
            raise AssertionError("weights drawn")

        monkeypatch.setattr(imbalattice.sequences, "_weights", no_weights)
        monkeypatch.setattr(imbalattice.trees, "_weights", no_weights)
        assert validate((1, 2, 2)) == seq(1, 2, 2)  # the Kraft check needs none
        for call in (
            lambda: scaled_partial_sums(l),
            lambda: scaled_partial_sums(l, 6),
            lambda: canonical_code(l),
        ):
            with pytest.raises(AssertionError, match="weights drawn"):
                call()
        assert answers() == expected


class TestOrderLaws:
    def test_partial_order_small(self):
        # reflexive, antisymmetric, transitive over every universe to n=8
        for n in range(1, 9):
            pool = enumerate_universe(n).elements
            for a in pool:
                assert leq(a, a)
            for a in pool:
                for b in pool:
                    if leq(a, b) and leq(b, a):
                        assert a == b
            for a in pool:
                for b in pool:
                    if not leq(a, b):
                        continue
                    for c in pool:
                        if leq(b, c):
                            assert leq(a, c)

    def test_last_and_suffix_monotone(self):
        for n in range(1, 10):
            pool = enumerate_universe(n).elements
            for a in pool:
                for b in pool:
                    if leq(a, b):
                        assert a.last <= b.last
                        if a.last == b.last:
                            assert suffix_length(a) <= suffix_length(b)
