import copy
import pickle
from fractions import Fraction
from itertools import product

import pytest

import reference_linalg as ref
from reference_flag import jordan_nilpotent, nilpotent_jordan_type
from geocrystal.cartan import Composition, dominates, hw_to_partition, jordan_type
from geocrystal.errors import (
    InvalidRankError,
    MembershipError,
    SizeMismatchError,
)
from geocrystal.flag import (
    Flag,
    NilEndo,
    block_shift_x,
    composition_of,
    epsilon_k_flag,
    flag_bundle_from_json,
    flag_bundle_to_json,
    flag_dim,
    flag_membership,
    flag_reduce,
    is_hecke_pair,
    s_k_exponent,
)
from geocrystal.linalg import RatMat, canonicalize, full_space, zero_space


def flag_of(d, n, *spans):
    spaces = [zero_space(d)]
    for span in spans:
        spaces.append(canonicalize(span, d))
    spaces.append(full_space(d))
    return Flag(spaces, n)


def test_jordan_nilpotent_examples():
    x = jordan_nilpotent((2, 1), 3)
    assert ref.RatMat(x.x.entries).apply((0, 1, 0)) == (Fraction(1), Fraction(0), Fraction(0))
    assert ref.RatMat(x.x.entries).apply((1, 0, 0)) == (Fraction(0),) * 3
    assert ref.RatMat(x.x.entries).apply((0, 0, 1)) == (Fraction(0),) * 3
    assert jordan_nilpotent((1, 1, 1), 3).x.is_zero()
    reg = ref.RatMat(jordan_nilpotent((3,), 3).x.entries)
    assert not reg.power(2).is_zero() and reg.power(3).is_zero()
    with pytest.raises(SizeMismatchError):
        jordan_nilpotent((2, 1), 4)


def test_block_shift_x_layout():
    x, labels = block_shift_x((1, 1))
    assert labels == ((1, 1), (2, 1), (2, 2))
    assert ref.RatMat(x.x.entries).apply((0, 0, 1)) == (Fraction(0), Fraction(1), Fraction(0))
    assert ref.RatMat(x.x.entries).apply((1, 0, 0)) == (Fraction(0),) * 3
    assert ref.RatMat(x.x.entries).apply((0, 1, 0)) == (Fraction(0),) * 3

    x1, labels1 = block_shift_x((3,))
    assert x1.x.is_zero() and labels1 == ((1, 1),) * 3

    x2, _ = block_shift_x((0, 1))
    assert x2.d == 2
    assert ref.RatMat(x2.x.entries).apply((0, 1)) == (Fraction(1), Fraction(0))


def test_block_shift_jordan_type():
    x, _ = block_shift_x((2, 1))
    assert nilpotent_jordan_type(x.x).parts == (2, 1, 1)
    x2, _ = block_shift_x((0, 2))
    assert nilpotent_jordan_type(x2.x).parts == (2, 2)
    # the Jordan type of x is the conjugate of lambda(w), for every w
    for w in product(range(3), repeat=3):
        x, _ = block_shift_x(w)
        assert nilpotent_jordan_type(x.x) == hw_to_partition(w).conjugate()


def test_flag_membership():
    zero = NilEndo(RatMat.zeros(3, 3), 3)
    F = flag_of(3, 3, [(1, 0, 0)], [(1, 0, 0), (0, 1, 0)])
    assert flag_membership(zero, F)

    x, _ = block_shift_x((1, 1))
    F1 = flag_of(3, 3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert flag_membership(x, F1)

    reg = jordan_nilpotent((3,), 3)
    F2 = flag_of(3, 3, [(0, 0, 1)], [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert not flag_membership(reg, F2)


def test_composition_of():
    F = flag_of(3, 3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert composition_of(F).parts == (2, 1, 0)
    Ffull = flag_of(3, 3, [(1, 0, 0)], [(1, 0, 0), (0, 1, 0)])
    assert composition_of(Ffull).parts == (1, 1, 1)
    F0 = flag_of(2, 3, [], [(1, 0)])
    assert composition_of(F0).parts == (0, 1, 1)


def test_flag_dim():
    assert flag_dim((1, 1, 1)) == 3
    assert flag_dim((4, 0, 0)) == 0
    assert flag_dim((2, 1, 0)) == 2


def test_s_k_exponent():
    assert s_k_exponent((1, 1, 1), 1) == -1
    assert s_k_exponent((0, 2, 1), 1) == 1
    # defined formally even where the shifted composition is the ghost
    assert s_k_exponent((2, 1, 0), 2) == -2
    with pytest.raises(InvalidRankError):
        s_k_exponent((1, 0, 2), 3)
    # closed form d_{k+1} - d_k - 1 on a grid
    for parts in product(range(4), repeat=3):
        d = Composition(parts)
        for k in (1, 2):
            assert s_k_exponent(d, k) == parts[k] - parts[k - 1] - 1


def test_is_hecke_pair():
    F = flag_of(2, 3, [(1, 0)], [(1, 0), (0, 1)])
    Fp = flag_of(2, 3, [(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert is_hecke_pair(Fp, F, 1)
    assert not is_hecke_pair(F, F, 1)
    # inequality away from k
    G = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
    Gp = flag_of(3, 3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not is_hecke_pair(Gp, G, 1)


def test_epsilon_k_flag():
    x, _ = block_shift_x((1, 1))
    Fhw = flag_of(3, 3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert epsilon_k_flag(Fhw, x, 1) == 0
    assert epsilon_k_flag(Fhw, x, 2) == 0

    F0 = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
    assert epsilon_k_flag(F0, x, 1) == 1

    zero = NilEndo(RatMat.zeros(3, 3), 3)
    F = flag_of(3, 3, [(1, 0, 0)], [(1, 0, 0), (0, 1, 0)])
    for k in (1, 2):
        assert epsilon_k_flag(F, zero, k) == F[k + 1].dim - F[k].dim

    bad = flag_of(3, 3, [(0, 0, 1)], [(0, 0, 1), (0, 1, 0)])
    reg = jordan_nilpotent((3,), 3)
    with pytest.raises(MembershipError):
        epsilon_k_flag(bad, reg, 1)
    # the recorded verdict belongs to reg alone, and still refuses
    assert flag_membership(zero, bad)
    for _ in range(2):
        with pytest.raises(MembershipError):
            flag_reduce(bad, reg, 1)


def test_flag_reduce():
    x, _ = block_shift_x((1, 1))
    F0 = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
    F1, c = flag_reduce(F0, x, 1)
    assert c == 1
    assert F1[1] == canonicalize([(1, 0, 0), (0, 1, 0)], 3)
    assert composition_of(F1).parts == (2, 0, 1)
    assert flag_membership(x, F1)
    assert epsilon_k_flag(F1, x, 1) == 0

    # idempotent at stratum zero
    F2, c2 = flag_reduce(F1, x, 1)
    assert c2 == 0 and F2 == F1

    zero = NilEndo(RatMat.zeros(2, 2), 3)
    F3 = flag_of(2, 3, [], [(1, 0), (0, 1)])
    F4, c4 = flag_reduce(F3, zero, 1)
    assert c4 == 2 and F4[1].is_full()


def test_meet_recorded_for_one_x_is_not_read_for_another():
    x, _ = block_shift_x((1, 1))
    zero = NilEndo(RatMat.zeros(3, 3), 3)
    F = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
    # F_3 ∩ x^-1(F_1) is F_2 for x, but all of Q^3 for zero
    for nil, eps in ((x, 0), (zero, 1), (x, 0), (zero, 1)):
        assert epsilon_k_flag(F, nil, 2) == eps
        assert F._fiber[0] == nil and set(F._fiber[2]) == {2}
        fresh = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
        assert flag_reduce(F, nil, 2) == flag_reduce(fresh, nil, 2)


def test_recorded_meets_survive_copy_deepcopy_and_pickle():
    x, _ = block_shift_x((1, 1))
    F = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
    reduced = [flag_reduce(F, x, k) for k in (1, 2)]
    assert F._fiber[0] == x and set(F._fiber[2]) == {1, 2}
    for twin in (
        copy.copy(F),
        copy.deepcopy(F),
        pickle.loads(pickle.dumps(F)),
        pickle.loads(pickle.dumps(F, protocol=0)),
    ):
        assert twin == F and twin._fiber == F._fiber
        assert [flag_reduce(twin, x, k) for k in (1, 2)] == reduced
        zero = NilEndo(RatMat.zeros(3, 3), 3)
        assert epsilon_k_flag(twin, zero, 2) == 1 and twin._fiber[0] == zero


def test_jordan_dominance_on_fibers():
    # composition type dominates the Jordan type of x on fiber members
    x, _ = block_shift_x((1, 1))
    lam_x = nilpotent_jordan_type(x.x)
    for F in (
        flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)]),
        flag_of(3, 3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ):
        assert flag_membership(x, F)
        assert dominates(jordan_type(composition_of(F)), lam_x)


def test_flag_bundle_round_trip():
    x, _ = block_shift_x((1, 1))
    F = flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])
    payload = flag_bundle_to_json(x, [F])
    x2, flags = flag_bundle_from_json(payload)
    assert x2 == x and flags == [F]


def _bundle_with(**changes):
    """The round-trip bundle with top-level fields, or its one flag's
    (keys prefixed flag_), replaced."""
    x, _ = block_shift_x((1, 1))
    payload = flag_bundle_to_json(x, [flag_of(3, 3, [(1, -1, 0)], [(1, 0, 0), (0, 1, 0)])])
    for key, value in changes.items():
        if key.startswith("flag_"):
            payload["flags"][0][key[len("flag_"):]] = value
        else:
            payload[key] = value
    return payload


@pytest.mark.parametrize(
    "payload, message",
    [
        (_bundle_with(n=3.0), "n must be an integer"),
        (_bundle_with(n=True), "n must be an integer"),
        (_bundle_with(n="3"), "n must be an integer"),
        (_bundle_with(d=3.0), "d must be an integer"),
        (_bundle_with(flags="ab"), "flags must be a list"),
        (_bundle_with(flags={"0": None}), "flags must be a list"),
        (_bundle_with(flags=["ab"]), "a flag is an object"),
        (_bundle_with(flag_d=3.0), "d must be an integer"),
        (_bundle_with(flag_d=False), "d must be an integer"),
        (_bundle_with(flag_n=3.0), "n must be an integer"),
        (_bundle_with(flag_n=True), "n must be an integer"),
        (_bundle_with(flag_spaces="ab"), "spaces must be a list"),
        (_bundle_with(flag_spaces={"0": None}), "spaces must be a list"),
        (["not", "an", "object"], "a flag bundle is an object"),
    ],
    ids=[
        "float n", "bool n", "string n", "float d", "string flags", "object flags",
        "string flag", "float flag d", "bool flag d", "float flag n", "bool flag n",
        "string spaces", "object spaces", "list bundle",
    ],
)
def test_flag_bundle_reader_takes_only_json_ints_and_lists(payload, message):
    # a plain ValueError from the reader, not a GeoCrystalError from a
    # constructor that was handed the wrong type
    with pytest.raises(ValueError, match=f"^{message}") as exc:
        flag_bundle_from_json(payload)
    assert type(exc.value) is ValueError


def _bundle_with_x_key(key, value):
    payload = _bundle_with()
    payload["x"][key] = value
    return payload


@pytest.mark.parametrize(
    "payload, message",
    [
        (_bundle_with(extra=1), "unknown flag bundle keys ['extra']"),
        (_bundle_with(schema_version="2"), "unsupported flag bundle schema_version '2'"),
        (_bundle_with(schema_version=1), "unsupported flag bundle schema_version 1"),
        (_bundle_with(flag_extra=1), "unknown flag keys ['extra']"),
        (_bundle_with(flag_schema_version="1"), "unknown flag keys ['schema_version']"),
        (_bundle_with_x_key("extra", 1), "unknown matrix keys ['extra']"),
    ],
    ids=["extra key", "version 2", "int version", "extra flag key", "flag version", "extra x key"],
)
def test_flag_bundle_reader_refuses_unknown_keys_and_versions(payload, message):
    with pytest.raises(ValueError) as exc:
        flag_bundle_from_json(payload)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_flag_bundle_d_must_match_x():
    with pytest.raises(SizeMismatchError):
        flag_bundle_from_json(_bundle_with(d=4))
