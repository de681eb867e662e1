"""The immutable types: construction, validation, equality, hashing, repr,
immutability, and copies of every frozen type."""

import copy
import pickle
from itertools import product

import pytest

from geocrystal.cartan import Composition, DimVec, HighestWeight, IntTuple, Partition, Weight
from geocrystal.crystal import (
    CrystalGraph,
    CrystalVertex,
    StembridgeReport,
    StrataReport,
    highest_weight_crystal,
)
from geocrystal.errors import IncompatibleError, InvalidRankError
from geocrystal.flag import Flag, NilEndo, flag_membership
from geocrystal.linalg import RatMat, Subspace, canonicalize
from geocrystal.maffei import ThetaContext, theta
from geocrystal.quiver import QuiverRep, QuiverShape, in_Lambda, is_stable, sample_lambda_point
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
    (
        NilEndo,
        lambda: {"x": RatMat([[0, 1], [0, 0]]), "n": 2},
        "NilEndo(x=RatMat(2x2), n=2)",
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
def test_fields_cannot_be_deleted(cls, fields, text):
    value = cls(**fields())
    for name in fields():
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(value, name)
    assert value == cls(**fields()) and repr(value) == text


INT_TUPLES = [case for case in CASES if issubclass(case[0], IntTuple)]


@pytest.mark.parametrize(
    "cls, fields, text", INT_TUPLES, ids=[cls.__name__ for cls, _, _ in INT_TUPLES]
)
def test_int_tuples_read_as_their_field(cls, fields, text):
    (items,) = fields().values()
    value = cls(items)
    assert tuple(value) == items and len(value) == len(items)
    assert [value[k] for k in range(len(items))] == list(items)
    assert value[-1] == items[-1] and value[1:] == items[1:]
    assert value.to_json() == list(items)


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


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_trusted_construction_is_the_validated_value(cls, fields, text):
    trusted, validated = cls._trusted(*fields().values()), cls(**fields())
    assert type(trusted) is cls and trusted == validated and repr(trusted) == text
    if cls is not StrataReport:  # its stratum sizes are a dict
        assert hash(trusted) == hash(validated)
    for name in (*fields(), "extra"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(trusted, name, None)
    for twin in (copy.copy(trusted), copy.deepcopy(trusted), pickle.loads(pickle.dumps(trusted))):
        assert type(twin) is cls and twin == validated and repr(twin) == text


def _is_int_tuple(items) -> bool:
    return type(items) is tuple and all(type(c) is int for c in items)


def test_crystal_vertices_hold_the_validated_records():
    # the build derives each content and weight and sets each vertex without
    # validating; a JSON digest would not see a list where a tuple belongs
    crystals = 0
    for n in range(2, 5):
        for w in product(range(9), repeat=n - 1):
            if HighestWeight(w).level_d > 8:
                continue
            crystals += 1
            for vx in highest_weight_crystal(w).vertices.values():
                a, wt = Composition(vx.a.parts), Weight.from_eps(vx.a.parts)
                assert type(vx) is CrystalVertex
                assert type(vx.a) is Composition and vx.a == a and hash(vx.a) == hash(a)
                assert type(vx.wt) is Weight and vx.wt == wt and hash(vx.wt) == hash(wt)
                assert len(vx.a.parts) == n and len(vx.eps) == len(vx.phi) == n - 1
                for items in (vx.word, vx.eps, vx.phi, vx.a.parts, vx.wt.omega):
                    assert _is_int_tuple(items)
    assert crystals == 75


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


def _point():
    """A sampled point of the (1, 2, 1), (1, 1, 1) config whose recorded
    verdicts are set."""
    r = sample_lambda_point((1, 2, 1), (1, 1, 1), seed=3)
    assert in_Lambda(r) and is_stable(r)
    return r


def _flag():
    ctx = ThetaContext((1, 1, 1))
    F = theta(_point(), ctx)
    assert flag_membership(ctx.x, F)
    return F


def _slots(obj):
    return tuple(getattr(obj, name) for name in obj.__slots__)


# (class, a function building an object, what a copy must agree on)
FROZEN = [
    (RatMat, lambda: RatMat([[1, "1/2"], [0, -3]]), lambda m: m),
    (Subspace, lambda: canonicalize([(1, 2, 0), (0, 1, 1)], 3), lambda s: s),
    (NilEndo, lambda: ThetaContext((2, 1)).x, lambda x: x),
    (Flag, _flag, lambda F: (F, F._fiber)),
    (QuiverRep, _point, lambda r: (r.to_json(), r._in_lambda, r._stable)),
    (ThetaContext, lambda: ThetaContext((1, 0, 2)), _slots),
    (
        CrystalGraph,
        lambda: highest_weight_crystal((1, 1)),
        lambda g: (g.vertices, g.f_edges, g.e_edges, g.highest, g.multiplicities),
    ),
]


@pytest.mark.parametrize("cls, build, key", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_types_copy_deepcopy_and_pickle(cls, build, key):
    obj = build()
    for twin in (
        copy.copy(obj),
        copy.deepcopy(obj),
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
    ):
        assert type(twin) is cls and key(twin) == key(obj)
        for name in (cls.__slots__[0], "extra"):
            with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
                setattr(twin, name, None)


@pytest.mark.parametrize("cls, build, key", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_types_refuse_deletion(cls, build, key):
    obj = build()
    before = key(obj)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(obj, name)
    assert key(obj) == before and key(copy.deepcopy(obj)) == before


def test_theta_of_a_pickled_point_is_the_original_flag():
    r, ctx = _point(), ThetaContext((1, 1, 1))
    for protocol in (pickle.DEFAULT_PROTOCOL, 0):
        twin = pickle.loads(pickle.dumps(r, protocol))
        assert theta(twin, ctx) == theta(r, ctx)
        assert theta(twin, pickle.loads(pickle.dumps(ctx, protocol))) == theta(r, ctx)
