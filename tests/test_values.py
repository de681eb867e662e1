"""The immutable value types: construction, validation, equality, hashing,
repr and immutability."""

import copy
import pickle

import pytest

from geocrystal.cartan import Composition, DimVec, HighestWeight, Partition, Weight
from geocrystal.crystal import CrystalVertex, StembridgeReport, StrataReport
from geocrystal.errors import IncompatibleError, InvalidRankError
from geocrystal.quiver import QuiverShape
from geocrystal.repalg import Constituent, Decomposition, Fact


def _constituent():
    return {
        "w": HighestWeight((1, 1)),
        "gl_partition": Partition((2, 1)),
        "sl_partition": Partition((2, 1)),
        "multiplicity": 2,
        "dimension": 8,
        "strict_partition_of_d": True,
    }


# (class, a function returning fresh keyword fields, the repr of the value)
CASES = [
    (Weight, lambda: {"omega": (1, 2)}, "Weight(omega=(1, 2))"),
    (HighestWeight, lambda: {"w": (1, 2)}, "HighestWeight(w=(1, 2))"),
    (Composition, lambda: {"parts": (2, 0, 1)}, "Composition(parts=(2, 0, 1))"),
    (DimVec, lambda: {"v": (1, 0)}, "DimVec(v=(1, 0))"),
    (Partition, lambda: {"parts": (3, 1)}, "Partition(parts=(3, 1))"),
    (QuiverShape, lambda: {"n": 4}, "QuiverShape(n=4)"),
    (
        CrystalVertex,
        lambda: {
            "word": (1, 2),
            "wt": Weight((0, 1)),
            "a": Composition((1, 1, 0)),
            "eps": (0, 0),
            "phi": (0, 1),
        },
        "CrystalVertex(word=(1, 2), wt=Weight(omega=(0, 1)), "
        "a=Composition(parts=(1, 1, 0)), eps=(0, 0), phi=(0, 1))",
    ),
    (
        StembridgeReport,
        lambda: {"ok": True, "vertices": 8, "checks": 12, "violation": None},
        "StembridgeReport(ok=True, vertices=8, checks=12, violation=None)",
    ),
    (
        StrataReport,
        lambda: {"ok": False, "vertex_count": 8, "stratum_sizes": {0: 4}, "violation": "v"},
        "StrataReport(ok=False, vertex_count=8, stratum_sizes={0: 4}, violation='v')",
    ),
    (
        Constituent,
        _constituent,
        "Constituent(w=HighestWeight(w=(1, 1)), gl_partition=Partition(parts=(2, 1)), "
        "sl_partition=Partition(parts=(2, 1)), multiplicity=2, dimension=8, "
        "strict_partition_of_d=True)",
    ),
    (
        Decomposition,
        lambda: {"n": 3, "d": 3, "constituents": (Constituent(**_constituent()),)},
        "Decomposition(n=3, d=3, constituents=(Constituent(w=HighestWeight(w=(1, 1)), "
        "gl_partition=Partition(parts=(2, 1)), sl_partition=Partition(parts=(2, 1)), "
        "multiplicity=2, dimension=8, strict_partition_of_d=True),))",
    ),
    (
        Fact,
        lambda: {"name": "dim", "value": 65, "expected": 65},
        "Fact(name='dim', value=65, expected=65)",
    ),
]

IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, fields, text):
    by_keyword = cls(**fields())
    by_position = cls(*fields().values())
    for name, value in fields().items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) == value
    assert by_keyword == by_position
    assert repr(by_keyword) == repr(by_position) == str(by_keyword) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_fields_equal_values(cls, fields, text):
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    assert a != tuple(fields().values())
    if cls is StrataReport:
        # the stratum sizes are a dict, so the field tuple has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(fields().values()))


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, text):
    value = cls(**fields())
    for name in fields():
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_arguments_bind_as_in_a_def(cls, fields, text):
    names, values = list(fields()), list(fields().values())
    # each call, and a part of the TypeError message it must raise
    calls = [
        (lambda: cls(*values[:-1]), repr(names[-1])),
        (lambda: cls(**dict(list(fields().items())[1:])), repr(names[0])),
        (lambda: cls(*values, values[0]), "were given"),
        (lambda: cls(**fields(), extra=1), "'extra'"),
        (lambda: cls(values[0], **fields()), f"multiple values for argument {names[0]!r}"),
    ]
    for call, part in calls:
        with pytest.raises(TypeError) as info:
            call()
        assert cls.__name__ in str(info.value) and part in str(info.value)


def test_unequal_fields_or_classes():
    assert Weight((1, 2)) != Weight((2, 1))
    assert Weight((1,)) != HighestWeight((1,))
    assert HighestWeight((1,)) != DimVec((1,))
    assert Composition((2, 1)) != Partition((2, 1))
    assert StembridgeReport(True, 8, 12, None) != StrataReport(True, 8, 12, None)
    assert QuiverShape(3) != QuiverShape(4)
    assert Fact("a", 1, 1) != Fact("a", 1, 2)
    assert len({Weight((1,)), HighestWeight((1,)), DimVec((1,)), Weight([1])}) == 3


def test_entries_are_stored_as_int_tuples():
    assert Weight([1, -2]).omega == (1, -2)
    assert HighestWeight([0, 3]).w == (0, 3)
    assert Composition(iter([2, 0])).parts == (2, 0)
    assert DimVec([True, 2]).v == (1, 2)
    assert type(DimVec([True, 2]).v[0]) is int
    assert Partition([2, 2, 1]).parts == (2, 2, 1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Weight(()), InvalidRankError, "weight needs at least one omega coordinate"),
        (lambda: HighestWeight(w=()), InvalidRankError, "highest weight needs n >= 2"),
        (
            lambda: HighestWeight((1, -1)),
            IncompatibleError,
            "negative entry in highest weight (1, -1)",
        ),
        (
            lambda: Composition(parts=[1, -1]),
            IncompatibleError,
            "negative part in composition (1, -1)",
        ),
        (lambda: DimVec(()), InvalidRankError, "dimension vector needs n >= 2"),
        (
            lambda: DimVec(v=(0, -2)),
            IncompatibleError,
            "negative entry in dimension vector (0, -2)",
        ),
        (lambda: Partition((2, 0)), IncompatibleError, "non-positive part in partition (2, 0)"),
        (lambda: Partition((1, 2)), IncompatibleError, "parts not weakly decreasing: (1, 2)"),
        (lambda: QuiverShape(n=1), InvalidRankError, "n must be >= 2, got 1"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, fields, text):
    value = cls(**fields())
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
    ):
        assert type(twin) is cls and twin == value and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(fields())), None)
