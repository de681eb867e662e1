import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocrystal.cartan import (
    Composition,
    HighestWeight,
    Partition,
    Weight,
    a_of_vw,
    alpha_weight,
    cartan_matrix,
    comp_shift,
    dominates,
    gl_partitions,
    hw_to_partition,
    is_partition_of,
    jordan_type,
    pair_with_coroot,
    partition_to_hw,
    reduce_mod_full_columns,
    v_of_aw,
    weight_of_vw,
)
from geocrystal.errors import (
    IncompatibleError,
    InvalidRankError,
    NotInImageError,
)


def test_cartan_matrix_small():
    assert cartan_matrix(2) == ((2,),)
    assert cartan_matrix(3) == ((2, -1), (-1, 2))
    assert cartan_matrix(4) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert cartan_matrix(4) is cartan_matrix(4)  # built once per n


def test_cartan_matrix_invalid_rank():
    # the per-n cache keeps no failed call: each one raises again
    for n in (1, 1, 0, -3):
        with pytest.raises(InvalidRankError):
            cartan_matrix(n)


def test_pair_with_coroot_basics():
    assert pair_with_coroot(Weight((1, 0)), 1) == 1
    assert pair_with_coroot(alpha_weight((1, 0)), 1) == 2
    mu = weight_of_vw((1, 0), (1, 1))
    assert pair_with_coroot(mu, 1) == -1
    assert pair_with_coroot(mu, 2) == 2
    with pytest.raises(InvalidRankError):
        pair_with_coroot(mu, 3)


def test_weight_eps_round_trip():
    w = Weight((2, -1, 3))
    assert Weight.from_eps(w.eps) == w
    shifted = tuple(e + 5 for e in w.eps)
    assert Weight.from_eps(shifted) == w


def test_hw_to_partition():
    assert hw_to_partition((1, 1)).parts == (2, 1)
    assert is_partition_of((1, 1), 3)
    assert hw_to_partition((3, 0)).parts == (3,)
    assert is_partition_of((3, 0), 3)
    assert hw_to_partition((0, 0)).parts == ()
    assert is_partition_of((0, 0), 0)


def test_comp_shift():
    assert comp_shift((1, 1, 1), 1, +1) == Composition((2, 0, 1))
    assert comp_shift((1, 0, 1), 1, -1) == Composition((0, 1, 1))
    assert comp_shift((0, 1, 1), 1, -1) is None
    with pytest.raises(InvalidRankError):
        comp_shift((1, 1, 1), 3, +1)


def test_a_of_vw_examples():
    assert a_of_vw((0, 0), (1, 1)).parts == (2, 1, 0)
    assert a_of_vw((1, 1), (1, 1)).parts == (1, 1, 1)
    assert a_of_vw((2, 1), (1, 1)).parts == (0, 2, 1)


def test_v_of_aw_examples():
    assert v_of_aw((1, 1, 1), (1, 1)).v == (1, 1)
    assert v_of_aw((2, 1, 0), (1, 1)).v == (0, 0)
    with pytest.raises(NotInImageError):
        v_of_aw((3, 0, 0), (1, 1))
    with pytest.raises(IncompatibleError):
        v_of_aw((1, 1, 0), (1, 1))  # sums to 2 but w is a partition of 3


def test_jordan_type_examples():
    assert jordan_type((2, 1, 0)).parts == (2, 1)
    assert jordan_type((1, 1, 1)).parts == (3,)
    assert jordan_type((3, 0, 0)).parts == (1, 1, 1)


def test_partition_validation_and_conjugate():
    with pytest.raises(IncompatibleError):
        Partition((1, 2))
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition(()).conjugate().parts == ()


def test_partition_to_hw_and_reduction():
    assert partition_to_hw((2, 1), 3).w == (1, 1)
    assert reduce_mod_full_columns(Partition((2, 1, 1)), 3).parts == (1,)
    assert reduce_mod_full_columns(Partition((1, 1, 1)), 3).parts == ()
    assert sorted(p.parts for p in gl_partitions(3, 3)) == [
        (1, 1, 1),
        (2, 1),
        (3,),
    ]


def test_dominates():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((1, 1, 1), (2, 1))
    assert dominates((2, 1), (2, 1))


@st.composite
def vw_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    w = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n - 1))
    v = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(n - 1))
    return v, w


@settings(max_examples=200, deadline=None)
@given(vw_pairs())
def test_a_v_bijection_round_trip(pair):
    v, w = pair
    try:
        a = a_of_vw(v, w)
    except NotInImageError:
        return
    assert v_of_aw(a, w).v == v
    assert a.d == HighestWeight(w).level_d


@settings(max_examples=200, deadline=None)
@given(vw_pairs())
def test_coefficient_bridge(pair):
    v, w = pair
    try:
        a = a_of_vw(v, w)
    except NotInImageError:
        return
    mu = weight_of_vw(v, w)
    n = len(w) + 1
    for k in range(1, n):
        assert a[k - 1] - a[k] == pair_with_coroot(mu, k)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=6))
def test_comp_shift_round_trip(parts):
    d = Composition(tuple(parts))
    for k in range(1, len(parts)):
        up = comp_shift(d, k, +1)
        if up is not None:
            assert comp_shift(up, k, -1) == d


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
def test_hw_partition_size(wparts):
    w = HighestWeight(tuple(wparts))
    assert hw_to_partition(w).size == w.level_d
