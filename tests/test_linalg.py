import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from geocrystal.errors import DimensionMismatchError
from geocrystal.linalg import (
    RatMat,
    _echelon,
    _matmul,
    canonicalize,
    contains,
    contains_image,
    embed,
    full_space,
    intersect,
    kernel,
    kernel_basis,
    power_ranks,
    preimage,
    rank,
    rref,
    zero_space,
)


def _columns(m: RatMat) -> list[tuple[Fraction, ...]]:
    """The columns of m, read from its entries."""
    return ref.RatMat(m.entries, cols=m.cols).columns()


def test_frac_str_format():
    # JSON entries are "p/q" with q > 0 and gcd(p, q) = 1
    m = RatMat([[Fraction(3), Fraction(-4, 6)]])
    assert m.to_json()["entries"] == [["3/1", "-2/3"]]


def test_ratmat_json_round_trip():
    m = RatMat([[1, Fraction(1, 2)], [0, -3]])
    payload = json.loads(json.dumps(m.to_json()))
    assert RatMat.from_json(payload) == m


def test_ratmat_reader_refuses_unknown_keys():
    payload = RatMat([[1, Fraction(1, 2)]]).to_json()
    for key in ("den", "schema_version"):
        with pytest.raises(ValueError, match=f"unknown matrix keys \\['{key}'\\]"):
            RatMat.from_json(dict(payload, **{key: "1"}))


def test_canonicalize_dependent_columns():
    s = canonicalize([(1, 1), (2, 2)], 2)
    assert s.dim == 1
    assert _columns(s.basis)[0] == (Fraction(1), Fraction(1))


def test_canonicalize_empty_and_full():
    assert canonicalize([], 2).dim == 0
    s = canonicalize([(0, 1), (1, 0)], 2)
    assert s.dim == 2
    assert s.basis == RatMat.identity(2)


def test_kernel_and_image_examples():
    m = RatMat([[1, 0], [0, 0]])
    ker, img = kernel(m), canonicalize(m, m.rows)
    assert _columns(ker.basis)[0] == (Fraction(0), Fraction(1))
    assert _columns(img.basis)[0] == (Fraction(1), Fraction(0))

    m = RatMat.zeros(3, 3)
    ker, img = kernel(m), canonicalize(m, m.rows)
    assert ker.dim == 3 and img.dim == 0

    m = RatMat([[1, 1]])
    ker, img = kernel(m), canonicalize(m, m.rows)
    assert ker.dim == 1 and img.dim == 1
    assert _columns(ker.basis)[0] == (Fraction(1), Fraction(-1))


def test_intersect_and_sum_examples():
    s1 = canonicalize([(1, 0, 0), (0, 1, 0)], 3)
    s2 = canonicalize([(0, 1, 0), (0, 0, 1)], 3)
    meet = intersect(s1, s2)
    assert _columns(meet.basis)[0] == (Fraction(0), Fraction(1), Fraction(0))

    assert intersect(s1, zero_space(3)).is_zero()

    meet = intersect(canonicalize([(1, 1)], 2), canonicalize([(1, -1)], 2))
    assert meet.is_zero()


def test_preimage_examples():
    shift = RatMat([[0, 1], [0, 0]])  # e2 -> e1
    assert preimage(shift, canonicalize([(1, 0)], 2)).is_full()
    s = canonicalize([(1, 2)], 2)
    assert preimage(RatMat.identity(2), s) == s
    assert preimage(RatMat.zeros(2, 2), s).is_full()


def test_contains_examples():
    assert contains(full_space(3), canonicalize([(1, 5, -2)], 3))
    assert not contains(canonicalize([(1, 0)], 2), canonicalize([(1, 1)], 2))
    assert contains(
        canonicalize([(1, 0, 0), (0, 1, 0)], 3), canonicalize([(1, 1, 0)], 3)
    )


def test_ambient_mismatch_errors():
    with pytest.raises(DimensionMismatchError):
        intersect(zero_space(2), zero_space(3))
    with pytest.raises(DimensionMismatchError):
        contains(zero_space(2), zero_space(3))
    with pytest.raises(DimensionMismatchError):
        canonicalize([(1, 0, 0)], 2)


def test_embed():
    s = canonicalize([(1, 1)], 2)
    big = embed(s, [0, 2], 4)
    assert big.ambient_dim == 4
    assert _columns(big.basis)[0] == (
        Fraction(1),
        Fraction(0),
        Fraction(1),
        Fraction(0),
    )
    with pytest.raises(DimensionMismatchError):
        embed(s, [2, 0], 4)
    with pytest.raises(DimensionMismatchError):
        embed(s, [1, 1], 4)


def test_block_edges():
    assert RatMat.block([[]]).shape == (0, 0)
    assert RatMat.block([[RatMat.zeros(2, 0)]]).shape == (2, 0)
    with pytest.raises(DimensionMismatchError):
        RatMat.block([[RatMat.zeros(1, 1), RatMat.zeros(2, 1)]])
    with pytest.raises(DimensionMismatchError):
        RatMat.block([[RatMat.zeros(1, 1)], [RatMat.zeros(1, 2)]])


def test_inverse():
    m = RatMat([[2, 1], [1, 1]])
    assert m * m.inverse() == RatMat.identity(2)
    with pytest.raises(DimensionMismatchError):
        RatMat([[1, 1], [1, 1]]).inverse()


@st.composite
def small_matrix(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = [
        [draw(st.integers(min_value=-3, max_value=3)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return RatMat(entries)


@settings(max_examples=100, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    ker, img = kernel(m), canonicalize(m, m.rows)
    assert ker.dim + img.dim == m.cols


@st.composite
def two_subspaces(draw):
    ambient = draw(st.integers(min_value=1, max_value=5))
    def space():
        k = draw(st.integers(min_value=0, max_value=ambient))
        vecs = [
            tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(ambient))
            for _ in range(k)
        ]
        return canonicalize(vecs, ambient)
    return space(), space()


@settings(max_examples=100, deadline=None)
@given(two_subspaces())
def test_modular_dimension_law(pair):
    s1, s2 = pair
    meet = intersect(s1, s2)
    total = canonicalize(_columns(s1.basis) + _columns(s2.basis), s1.ambient_dim)
    assert meet.dim + total.dim == s1.dim + s2.dim
    assert contains(s1, meet) and contains(s2, meet)
    assert contains(total, s1) and contains(total, s2)


@st.composite
def map_and_subspace(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    m = RatMat(
        [
            [draw(st.integers(min_value=-2, max_value=2)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )
    k = draw(st.integers(min_value=0, max_value=rows))
    vecs = [
        tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(rows))
        for _ in range(k)
    ]
    return m, canonicalize(vecs, rows)


@settings(max_examples=100, deadline=None)
@given(map_and_subspace())
def test_preimage_dimension_formula(pair):
    m, s = pair
    ker, img = kernel(m), canonicalize(m, m.rows)
    meet = intersect(s, img)
    assert preimage(m, s).dim == ker.dim + meet.dim


@settings(max_examples=100, deadline=None)
@given(two_subspaces())
def test_canonical_form_is_representation_equality(pair):
    s1, _ = pair
    # re-span with random double vectors: canonical basis must be identical
    doubled = [tuple(2 * a for a in col) for col in _columns(s1.basis)]
    again = canonicalize(doubled + _columns(s1.basis), s1.ambient_dim)
    assert again == s1
    assert json.dumps(again.basis.to_json()) == json.dumps(s1.basis.to_json())


# ---------------------------------------------------------------------------
# differential tests against the Fraction reference implementation
# ---------------------------------------------------------------------------

small_fraction = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
)


@st.composite
def rational_rows(draw, rows=None, cols=None, max_dim=5):
    """Rows of small rationals; half the draws are products through a narrow
    inner dimension, so rank-deficient matrices are common."""
    if rows is None:
        rows = draw(st.integers(min_value=1, max_value=max_dim))
    if cols is None:
        cols = draw(st.integers(min_value=1, max_value=max_dim))

    def block(r, c):
        return [[draw(small_fraction) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        return block(rows, cols)
    inner = draw(st.integers(min_value=1, max_value=2))
    return (ref.RatMat(block(rows, inner)) * ref.RatMat(block(inner, cols))).entries


def same_subspace(new, old):
    return (
        new.ambient_dim == old.ambient_dim
        and new.pivots == old.pivots
        and new.basis.entries == old.basis.entries
        and new.basis.to_json() == old.basis.to_json()
    )


@st.composite
def matrix_pair(draw):
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    return draw(rational_rows(rows, inner)), draw(rational_rows(inner, cols))


@settings(max_examples=100, deadline=None)
@given(matrix_pair())
def test_product_matches_reference(pair):
    a, b = pair
    new = RatMat(a) * RatMat(b)
    old = ref.RatMat(a) * ref.RatMat(b)
    assert new.entries == old.entries
    assert new.to_json() == old.to_json()
    assert new == RatMat(old.entries)


@settings(max_examples=150, deadline=None)
@given(rational_rows())
def test_rref_and_kernel_match_reference(rows):
    new_red, new_pivots = rref(RatMat(rows))
    old_red, old_pivots = ref.rref(ref.RatMat(rows))
    assert new_pivots == old_pivots
    assert new_red.entries == old_red.entries
    assert kernel_basis(RatMat(rows)) == ref.kernel_basis(ref.RatMat(rows))


@settings(max_examples=150, deadline=None)
@given(rational_rows(max_dim=8))
def test_kernel_matches_reference(rows):
    # kernel reads the reduced basis off one reversed elimination; the
    # reference spans the free-column kernel vectors a second time
    m = RatMat(rows)
    assert same_subspace(kernel(m), ref.kernel_and_image(ref.RatMat(rows))[0])


@settings(max_examples=100, deadline=None)
@given(rational_rows())
def test_canonicalize_matches_reference(rows):
    ambient = len(rows[0])
    assert same_subspace(canonicalize(rows, ambient), ref.canonicalize(rows, ambient))
    columns = RatMat(list(zip(*rows)), cols=len(rows))
    assert same_subspace(
        canonicalize(columns, ambient), ref.canonicalize(rows, ambient)
    )


@st.composite
def spanning_set(draw, ambient):
    """Vectors spanning the zero space, the full space or a random one."""
    kind = draw(st.sampled_from(("zero", "full", "random")))
    if kind == "zero":
        return []
    if kind == "full":
        return [[int(i == j) for j in range(ambient)] for i in range(ambient)]
    return draw(rational_rows(draw(st.integers(min_value=1, max_value=ambient)), ambient))


@st.composite
def two_spanning_sets(draw):
    ambient = draw(st.integers(min_value=1, max_value=8))
    return ambient, [draw(spanning_set(ambient)) for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(two_spanning_sets())
def test_intersect_and_sum_match_reference(data):
    ambient, (v1, v2) = data
    new = intersect(canonicalize(v1, ambient), canonicalize(v2, ambient))
    old = ref.intersect_and_sum(
        ref.canonicalize(v1, ambient), ref.canonicalize(v2, ambient)
    )[0]
    assert same_subspace(new, old)


@st.composite
def span_and_coords(draw):
    """A spanning set of Q^m and m ascending coordinates of a larger space."""
    ambient = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=ambient))
    coords = sorted(draw(st.sets(st.integers(0, ambient - 1), min_size=m, max_size=m)))
    k = draw(st.integers(min_value=0, max_value=m))
    return ambient, coords, draw(rational_rows(k, m)) if k else []


@settings(max_examples=100, deadline=None)
@given(span_and_coords())
def test_embed_matches_reference(data):
    ambient, coords, vecs = data
    m = len(coords)
    new = embed(canonicalize(vecs, m), coords, ambient)
    assert same_subspace(new, ref.embed(ref.canonicalize(vecs, m), coords, ambient))


@st.composite
def rational_map_and_span(draw):
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    return draw(rational_rows(rows, cols)), draw(spanning_set(rows))


@settings(max_examples=100, deadline=None)
@given(rational_map_and_span())
def test_preimage_matches_reference(data):
    m, vecs = data
    rows = len(m)
    new = preimage(RatMat(m), canonicalize(vecs, rows))
    old = ref.preimage(ref.RatMat(m), ref.canonicalize(vecs, rows))
    assert same_subspace(new, old)
    assert contains_image(canonicalize(vecs, rows), RatMat(m), new)


@st.composite
def block_grid(draw):
    """A grid of rational blocks whose heights and widths may be zero."""
    heights = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    return widths, [
        [[[draw(small_fraction) for _ in range(w)] for _ in range(h)] for w in widths]
        for h in heights
    ]


@settings(max_examples=100, deadline=None)
@given(block_grid())
def test_block_matches_reference(data):
    widths, grid = data
    new = RatMat.block([[RatMat(b, cols=w) for b, w in zip(row, widths)] for row in grid])
    old = None
    for row in grid:
        line = ref.RatMat.zeros(len(row[0]), 0)
        for b, w in zip(row, widths):
            line = line.hstack(ref.RatMat(b, cols=w))
        old = line if old is None else old.vstack(line)
    assert new.shape == old.shape
    assert new.entries == old.entries
    assert new == RatMat(old.entries, cols=old.cols)


@st.composite
def square_matrix(draw):
    """Half the draws are random, half conjugates g N g^-1 of a strictly upper
    triangular N by a unit lower-times-upper triangular g."""
    d = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        return draw(rational_rows(d, d))
    entry = st.integers(min_value=-2, max_value=2)
    N = [[draw(entry) if j > i else 0 for j in range(d)] for i in range(d)]
    lower = [[draw(entry) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [[draw(entry) if j > i else int(i == j) for j in range(d)] for i in range(d)]
    g = ref.RatMat(lower) * ref.RatMat(upper)
    return (g * ref.RatMat(N) * g.inverse()).entries


@settings(max_examples=150, deadline=None)
@given(square_matrix())
def test_power_ranks_match_reference(rows):
    m = ref.RatMat(rows)
    ranks = [len(ref.rref(m.power(s))[1]) for s in range(m.rows + 2)]
    expected = ranks[:1]
    for r in ranks[1:]:
        if r == expected[-1]:
            break
        expected.append(r)
    assert power_ranks(RatMat(rows)) == expected
    assert rank(RatMat(rows)) == ranks[1]


def test_ratmat_fields_refuse_assignment():
    m = RatMat([[1, Fraction(1, 2)]])
    m.entries  # reading the Fractions writes nothing
    for name in ("rows", "cols", "num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    assert (m.rows, m.cols, m.num, m.den) == (1, 2, ((2, 1),), 2)


@st.composite
def integer_system(draw):
    """Integer rows up to 12 x 16 with zero rows and columns, entries of
    either sign (so negative pivots), and rows that combine earlier ones."""
    rows = draw(st.integers(min_value=0, max_value=12))
    cols = draw(st.integers(min_value=0, max_value=16))
    entry = st.one_of(
        st.just(0), st.integers(min_value=-3, max_value=3), st.integers(-(10**6), 10**6)
    )
    row = st.lists(entry, min_size=cols, max_size=cols)
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=15), max_size=4))
    out = [
        [0 if c in zero_cols else a for c, a in enumerate(r)]
        for r in draw(st.lists(row, min_size=rows, max_size=rows))
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if out else 0):
        coeffs = [draw(st.integers(min_value=-2, max_value=2)) for _ in out]
        out.append([sum(a * r[c] for a, r in zip(coeffs, out)) for c in range(cols)])
    if out and draw(st.booleans()):
        out.insert(draw(st.integers(min_value=0, max_value=len(out))), [0] * cols)
    return out, cols


@settings(max_examples=200, deadline=None)
@given(integer_system())
def test_echelon_matches_eager_bareiss(system):
    rows, cols = system
    assert _echelon(rows, cols) == ref.echelon(rows, cols)


def test_echelon_matches_eager_bareiss_on_moment_map_systems(monkeypatch):
    # every elimination the sampler runs on the acceptance configs: the
    # mu = 0 solves, the stability closures and the checks on the points
    from geocrystal import linalg
    from geocrystal.quiver import sample_lambda_point
    from geocrystal.suites import ACCEPTANCE_MAFFEI_CONFIGS, valid_dimvecs

    seen = []
    echelon = linalg._echelon

    def recorded(rows, ncols):
        seen.append(([list(r) for r in rows], ncols))
        return echelon(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    for n, w in ACCEPTANCE_MAFFEI_CONFIGS:
        vs = valid_dimvecs(w)
        for v in vs[:: max(1, len(vs) // 6)]:
            sample_lambda_point(v, w, seed=sum(v) + n)
    assert len(seen) >= 1000 and max(len(rows) for rows, _ in seen) >= 12
    for rows, ncols in seen:
        assert echelon(rows, ncols) == ref.echelon(rows, ncols)


def _ref_space(s):
    """The reference subspace with the span of s."""
    return ref.canonicalize(_columns(s.basis), s.ambient_dim)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda ambient: st.tuples(st.just(ambient), spanning_set(ambient))
))
def test_annihilator_cuts_out_the_subspace(data):
    ambient, vecs = data
    s = canonicalize(vecs, ambient)
    ann = s._annihilator()
    assert len(ann) == ambient - s.dim
    assert rank(RatMat(ann, cols=ambient)) == len(ann)
    assert all(not any(row) for row in _matmul(ann, s.basis.num))
    # its kernel is s again, so the rows cut out no more than s
    assert same_subspace(kernel(RatMat(ann, cols=ambient)), _ref_space(s))


def test_annihilator_of_zero_and_full_spaces():
    assert zero_space(3)._annihilator() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert full_space(3)._annihilator() == []
    assert zero_space(0)._annihilator() == full_space(0)._annihilator() == []
    # den e_q - sum_j num[q][j] e_{p_j} for the line through (2, 1, -1)
    assert canonicalize([(2, 1, -1)], 3)._annihilator() == [[-1, 2, 0], [1, 0, 2]]


def _theta_operands():
    """Points sampled at a spread of dimension vectors of every acceptance
    config, with their context, phi maps and flag."""
    from geocrystal.maffei import ThetaContext, phi_maps, theta
    from geocrystal.quiver import sample_lambda_point
    from geocrystal.suites import ACCEPTANCE_MAFFEI_CONFIGS, valid_dimvecs

    for idx, (n, w) in enumerate(ACCEPTANCE_MAFFEI_CONFIGS):
        ctx = ThetaContext(w)
        vs = valid_dimvecs(w)
        for v in vs[:: max(1, len(vs) // 6)]:
            r = sample_lambda_point(v, w, seed=100 * idx + sum(v))
            yield r, ctx, phi_maps(r, ctx), theta(r, ctx)


def test_theta_operands_match_reference():
    # the subspaces check_theta_point builds on real points: ker phi_k, the
    # joint outgoing kernels, x^-1(F_{k-1}) and the maximal admissible meets
    from geocrystal.flag import _max_admissible
    from geocrystal.quiver import joint_outgoing_kernel

    checked = 0
    for r, ctx, phis, F in _theta_operands():
        x = ref.RatMat(ctx.x.x.entries, cols=ctx.d)
        for k, phi in enumerate(phis, 1):
            old_phi = ref.RatMat(phi.entries, cols=phi.cols)
            assert same_subspace(kernel(phi), ref.kernel_and_image(old_phi)[0])
            outgoing = [r.B[h] for h in r.shape.edges_out_of(k)]
            if outgoing:
                stacked = RatMat.block([[b] for b in outgoing])
                old = ref.kernel_and_image(ref.RatMat(stacked.entries, cols=stacked.cols))[0]
                assert same_subspace(joint_outgoing_kernel(r, k), old)
            pre = preimage(ctx.x.x, F[k - 1])
            old_pre = ref.preimage(x, _ref_space(F[k - 1]))
            assert same_subspace(pre, old_pre)
            old_meet = ref.intersect_and_sum(_ref_space(F[k + 1]), old_pre)[0]
            assert same_subspace(intersect(F[k + 1], pre), old_meet)
            assert same_subspace(_max_admissible(F, ctx.x, k), old_meet)
            checked += 1
    assert checked >= 130
