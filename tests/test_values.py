"""Semantics of the package's immutable value types.

Each case gives a class, constructor arguments (defaults left out), the
field names, the full field tuple those arguments must produce, arguments
for an unequal instance, and the exact ``repr``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from imbalattice import (
    BalancingStep,
    CodeTree,
    KraftSumNotOne,
    LatticeUniverse,
    MalformedTree,
    NearConstancy,
    PathLengthSequence,
    PropertyReport,
    ScaledPartialSums,
    SegmentDecomposition,
    validate,
)

SEQ = validate((1, 2, 2))
STEP_SOURCE = validate((1, 2, 3, 3))
STEP_TARGET = validate((2, 2, 2, 2))
LEAF = CodeTree()

CASES = [
    pytest.param(
        PathLengthSequence, ((1, 2, 2),), ("components",), ((1, 2, 2),), ((0,),),
        "PathLengthSequence(components=(1, 2, 2))",
        id="PathLengthSequence",
    ),
    pytest.param(
        ScaledPartialSums, (2, (2, 3, 4)), ("scale_exponent", "sums"), (2, (2, 3, 4)),
        (3, (4, 6, 8)),
        "ScaledPartialSums(scale_exponent=2, sums=(2, 3, 4))",
        id="ScaledPartialSums",
    ),
    pytest.param(
        LatticeUniverse, (3, (SEQ,)), ("n", "elements", "cover_edges"), (3, (SEQ,), None),
        (3, (SEQ,), ()),
        "LatticeUniverse(n=3, elements=(PathLengthSequence(components=(1, 2, 2)),),"
        " cover_edges=None)",
        id="LatticeUniverse",
    ),
    pytest.param(
        BalancingStep, (STEP_SOURCE, 3, STEP_TARGET), ("source", "excess_index", "target"),
        (STEP_SOURCE, 3, STEP_TARGET), (STEP_SOURCE, 2, STEP_TARGET),
        "BalancingStep(source=PathLengthSequence(components=(1, 2, 3, 3)), excess_index=3,"
        " target=PathLengthSequence(components=(2, 2, 2, 2)))",
        id="BalancingStep",
    ),
    pytest.param(
        NearConstancy, (True, (3, 4)), ("verdict", "values"), (True, (3, 4)),
        (False, (3, 5)),
        "NearConstancy(verdict=True, values=(3, 4))",
        id="NearConstancy",
    ),
    pytest.param(
        SegmentDecomposition, ((1, 2), (), (3, 4, 4)), ("head", "middle", "tail"),
        ((1, 2), (), (3, 4, 4)), ((1, 2), (3,), (4, 4)),
        "SegmentDecomposition(head=(1, 2), middle=(), tail=(3, 4, 4))",
        id="SegmentDecomposition",
    ),
    pytest.param(
        PropertyReport, ("p", 3, "pass"), ("property", "n", "status", "witness"),
        ("p", 3, "pass", None), ("p", 3, "fail", "w"),
        "PropertyReport(property='p', n=3, status='pass', witness=None)",
        id="PropertyReport",
    ),
    pytest.param(
        CodeTree, ((LEAF, LEAF),), ("children",), ((LEAF, LEAF),), (),
        "CodeTree(children=(CodeTree(children=None), CodeTree(children=None)))",
        id="CodeTree",
    ),
]

parametrized = pytest.mark.parametrize("cls, args, names, fields, other, text", CASES)


def fields_of(x, names):
    return tuple(getattr(x, name) for name in names)


@parametrized
def test_equal_exactly_when_the_fields_are(cls, args, names, fields, other, text):
    x = cls(*args)
    assert x == cls(*args) and not x != cls(*args)
    assert x != cls(*other)
    assert x != fields and x != object()
    assert x.__eq__(fields) is NotImplemented


@parametrized
def test_hash_is_the_hash_of_the_field_tuple(cls, args, names, fields, other, text):
    assert hash(cls(*args)) == hash(fields)
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


@parametrized
def test_repr_names_every_field(cls, args, names, fields, other, text):
    assert repr(cls(*args)) == text


@parametrized
def test_assignment_and_deletion_raise(cls, args, names, fields, other, text):
    x = cls(*args)
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert fields_of(x, names) == fields


@parametrized
def test_defaults_fill_the_remaining_fields(cls, args, names, fields, other, text):
    assert fields_of(cls(*args), names) == fields
    assert cls(**dict(zip(names, fields))) == cls(*args)


@parametrized
def test_copies_and_pickles_equal_the_original(cls, args, names, fields, other, text):
    x = cls(*args)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and type(twin) is cls


def test_leaf_default_and_malformed_trees():
    assert LEAF.children is None and LEAF.is_leaf
    assert repr(LEAF) == "CodeTree(children=None)"
    assert CodeTree([LEAF, LEAF]).children == (LEAF, LEAF)
    for children in ((LEAF,), (LEAF, LEAF, LEAF), (LEAF, "leaf")):
        with pytest.raises(MalformedTree):
            CodeTree(children)


def test_universe_still_caches_its_positions():
    universe = LatticeUniverse(3, (SEQ,))
    assert universe.index(SEQ) == 0 and SEQ in universe
    assert universe == LatticeUniverse(3, (SEQ,))


def test_sequence_components_become_a_tuple_of_ints():
    x = PathLengthSequence([True, 1])
    assert x.components == (1, 1) and type(x.components[0]) is int
    assert x == PathLengthSequence((1, 1))


def test_kraft_sum_is_an_exact_fraction():
    with pytest.raises(KraftSumNotOne) as info:
        validate((1, 1, 1))
    assert isinstance(info.value.kraft_sum, Fraction)
    assert info.value.kraft_sum == Fraction(3, 2)
    assert info.value.deficit == Fraction(-1, 2)
