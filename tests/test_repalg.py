import hashlib
import json
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linalg as ref
import reference_repalg
from geocrystal import cli, repalg, suites
from geocrystal.cartan import HighestWeight, gl_partitions, hw_to_partition
from geocrystal.errors import BudgetExceededError, IncompatibleError, SizeMismatchError
from geocrystal.repalg import (
    decompose_tensor,
    dim_quotient_Id,
    dim_quotient_Jw,
    dominant_weights_of,
    irrep_dim,
    kostka,
    margin_matrix_count,
    rsk,
    rsk_inverse,
    verify_sl3_example,
)


def test_budget():
    with pytest.raises(BudgetExceededError):
        decompose_tensor(10, 10)
    with pytest.raises(BudgetExceededError):
        decompose_tensor(4, 4, budget=10)


def test_decompose_small():
    dec = decompose_tensor(2, 1)
    assert [(c.w.w, c.multiplicity, c.dimension) for c in dec.constituents] == [
        ((1,), 1, 2)
    ]
    dec22 = decompose_tensor(2, 2)
    assert [(c.w.w, c.multiplicity, c.dimension) for c in dec22.constituents] == [
        ((2,), 1, 3),
        ((0,), 1, 1),
    ]


def test_decompose_3_3():
    dec = decompose_tensor(3, 3)
    facts = {
        c.gl_partition.parts: (c.w.w, c.multiplicity, c.dimension, c.strict_partition_of_d)
        for c in dec.constituents
    }
    assert facts[(3,)] == ((3, 0), 1, 10, True)
    assert facts[(2, 1)] == ((1, 1), 2, 8, True)
    # both readings: the trivial constituent is a GL partition of 3 but its
    # sl_3 weight is not a strict partition of 3
    assert facts[(1, 1, 1)] == ((0, 0), 1, 1, False)
    assert dec.total == 27


def test_exact_fallback_matches_modp(monkeypatch):
    """In the raising-operator oracle, a mod-p rank that under-reports fails
    the checksum, and the exact ranks that replace it give the unpatched
    multiplicities."""
    expected = reference_repalg.singular_multiplicities(3, 3)
    rank_exact = reference_repalg.rank_exact
    exact_calls = []

    def exact(*args):
        exact_calls.append(args)
        return rank_exact(*args)

    monkeypatch.setattr(reference_repalg, "rank_mod_p", lambda rows, cols, triplets: 0)
    monkeypatch.setattr(reference_repalg, "rank_exact", exact)
    assert reference_repalg.singular_multiplicities(3, 3) == expected
    assert exact_calls


@st.composite
def triplet_matrices(draw):
    """A matrix with entries in [-3, 3] and some zero rows and columns, and a
    shuffled triplet list for it in which entries are split into duplicates
    (a zero entry may still have triplets)."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, 5)))
    zero_cols = draw(st.sets(st.integers(0, 5)))
    entries = [
        [
            0 if r in zero_rows or c in zero_cols
            else draw(st.one_of(st.just(0), st.integers(-3, 3)))
            for c in range(cols)
        ]
        for r in range(rows)
    ]
    triplets = []
    for r in range(rows):
        for c in range(cols):
            parts = draw(st.lists(st.integers(-3, 3), max_size=2))
            triplets += [(r, c, x) for x in parts]
            if entries[r][c] != sum(parts):
                triplets.append((r, c, entries[r][c] - sum(parts)))
    return rows, cols, entries, draw(st.permutations(triplets))


@settings(max_examples=300, deadline=None)
@given(triplet_matrices())
def test_rank_mod_p_matches_reference(case):
    # every minor is at most (3 sqrt 6)^6 < PRIME in absolute value, so the
    # rank mod PRIME is the rank over Q
    rows, cols, entries, triplets = case
    _, pivots = ref.rref(ref.RatMat(entries, cols=cols))
    assert reference_repalg.rank_mod_p(rows, cols, triplets) == len(pivots)


def test_modp_certifies_without_fallback(monkeypatch):
    """The oracle's mod-p ranks pass its checksum on the benchmark's pairs."""
    def no_fallback(*args):
        raise AssertionError("exact fallback used")

    monkeypatch.setattr(reference_repalg, "rank_exact", no_fallback)
    pairs = [(n, d) for n in (2, 3, 4) for d in range(1, 7)]
    pairs += [(3, 7), (3, 8), (4, 6), (4, 7)]
    for n, d in pairs:
        reference_repalg.singular_multiplicities(n, d)


def test_irrep_dim():
    assert irrep_dim((1,), 3) == 3
    assert irrep_dim((1,), 5) == 5
    assert irrep_dim((2, 1), 3) == 8
    assert irrep_dim((3,), 3) == 10
    assert irrep_dim((1, 1, 1), 3) == 1
    with pytest.raises(IncompatibleError):
        irrep_dim((1, 1, 1, 1), 3)


def test_dim_quotient_Id():
    assert dim_quotient_Id(2, 1) == 4
    assert dim_quotient_Id(2, 2) == 10
    assert dim_quotient_Id(3, 3) == 165


def test_dominant_weights_of():
    weights = [mu.w for mu in dominant_weights_of((1, 1))]
    assert (1, 1) in weights
    assert (0, 0) in weights
    assert (3, 0) not in weights  # not expressible with v >= 0
    assert (3, 0) in [mu.w for mu in dominant_weights_of((3, 0))]


def test_dim_quotient_Jw():
    assert dim_quotient_Jw((1, 1)) == 65
    assert dim_quotient_Jw((2,)) == 10
    assert dim_quotient_Jw((0, 0)) == 1


def test_dim_quotient_Jw_budget_counts_compositions():
    # level 12 into 3 parts: C(14, 2) = 91 compositions, though n^d = 3^12
    assert dim_quotient_Jw((4, 4)) == 37_855
    assert dim_quotient_Jw((4, 4), budget=91) == 37_855
    with pytest.raises(BudgetExceededError, match="91 compositions"):
        dim_quotient_Jw((4, 4), budget=90)


def _weights_up_to_level(n_max, level_max):
    """Every w with 2 <= n <= n_max and level at most level_max."""
    for n in range(2, n_max + 1):
        for w in product(range(level_max + 1), repeat=n - 1):
            if HighestWeight(w).level_d <= level_max:
                yield w


def test_weights_of_L_match_box_scan_and_crystal():
    # every dominant candidate of the box is flagged a weight by the crystal,
    # so the Kostka enumeration needs no membership flag
    ws = list(_weights_up_to_level(5, 6))
    assert len(ws) == 73
    for w in ws:
        assert repalg.valid_dimvecs(w) == reference_repalg.valid_dimvecs(w), w
        flagged = reference_repalg.dominant_weights_of(w)
        assert all(member for _, member in flagged), w
        assert dominant_weights_of(w) == [mu for mu, _ in flagged], w


def test_kostka():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1, 0)) == 1
    assert kostka((3, 1), (3, 1)) == 1
    assert kostka((2, 1), (3, 0, 0)) == 0
    assert kostka((), ()) == 1
    with pytest.raises(SizeMismatchError):
        kostka((2, 1), (1, 1))


def test_margin_matrix_count():
    assert margin_matrix_count((1, 1, 1), (1, 1, 1)) == 6
    assert margin_matrix_count((2, 0), (1, 1)) == 1
    assert margin_matrix_count((3,), (1, 1, 1)) == 1
    with pytest.raises(SizeMismatchError):
        margin_matrix_count((1, 1), (1,))


def test_margin_kostka_identity():
    # N(d1, d2) = sum over shapes of K(shape, d1) K(shape, d2)
    from itertools import product

    from geocrystal.cartan import gl_partitions

    for d1 in product(range(4), repeat=3):
        if sum(d1) != 3:
            continue
        for d2 in product(range(4), repeat=3):
            if sum(d2) != 3:
                continue
            direct = margin_matrix_count(d1, d2)
            via_rsk = sum(
                kostka(lam, d1) * kostka(lam, d2) for lam in gl_partitions(3, 3)
            )
            assert direct == via_rsk


def test_rsk_examples_and_roundtrip():
    P, Q = rsk([[1, 0], [1, 1]])
    assert [len(r) for r in P] == [len(r) for r in Q]
    assert rsk_inverse(P, Q, 2, 2) == [[1, 0], [1, 1]]

    matrix = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    P, Q = rsk(matrix)
    # P content = column sums, Q content = row sums
    flat_p = sorted(x for row in P for x in row)
    assert flat_p == [1, 2, 2, 3]
    assert rsk_inverse(P, Q, 3, 3) == matrix


def test_verify_sl3_example():
    report = verify_sl3_example()
    assert report["pass"] is True
    values = {f["name"]: f["value"] for f in report["facts"]}
    assert values["dim U/I_3"] == 165
    assert values["dim U/J_(1,1)"] == 65
    assert values["multiplicity of 3*omega_1 in L(omega_1+omega_2)"] == 0
    assert values["is_partition_of((3,0), 3)"] is True
    import json

    assert json.dumps(report, sort_keys=True) == json.dumps(
        verify_sl3_example(), sort_keys=True
    )


def test_quotient_dimension_inequality():
    # no containment of ideals is asserted, only the dimension inequality
    from itertools import product

    for n in (2, 3):
        for w in product(range(3), repeat=n - 1):
            hw = HighestWeight(w)
            if hw.level_d > 4:
                continue
            assert dim_quotient_Jw(hw) <= dim_quotient_Id(n, hw.level_d)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("GEOCRYSTAL_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        decompose_tensor(3, 3)
    monkeypatch.setenv("GEOCRYSTAL_BUDGET", "1000000")
    assert decompose_tensor(3, 3).total == 27


def test_verify_sl3_example_tamper(monkeypatch):
    import geocrystal.repalg as repalg_mod

    real = repalg_mod.irrep_dim

    def tampered(lam, n):
        value = real(lam, n)
        return value + 1 if value == 8 else value

    monkeypatch.setattr(repalg_mod, "irrep_dim", tampered)
    report = repalg_mod.verify_sl3_example()
    assert report["pass"] is False
    failed = [f["name"] for f in report["facts"] if not f["ok"]]
    assert failed  # names the failed facts


def _criterion_5_kostka_pairs():
    """(lambda(w), a) for every crystal of the criterion-5 grid and every
    composition a of its level into n parts."""
    for w in _weights_up_to_level(4, 8):
        hw = HighestWeight(w)
        lam = hw_to_partition(hw)
        for a in reference_repalg.compositions(hw.level_d, hw.n):
            yield lam, a


def test_kostka_matches_cell_filling_on_criterion_5_grid():
    pairs = list(_criterion_5_kostka_pairs())
    assert len(pairs) == 4373
    for lam, a in pairs:
        assert kostka(lam, a) == reference_repalg.kostka(lam, a), (lam, a)


def test_kostka_matches_cell_filling_on_every_small_shape():
    # every partition of d <= 7, of any number of rows, against every
    # composition of d into 1-5 parts: shapes with more rows than letters
    # reach the closed form's "more than 3 rows" skip and the strip
    # removal's early exit, which the hypothesis shapes rarely do
    pairs = [
        (lam, a)
        for d in range(8)
        for lam in gl_partitions(d, d)
        for letters in range(1, 6)
        for a in reference_repalg.compositions(d, letters)
    ]
    assert len(pairs) == 13455
    for lam, a in pairs:
        assert kostka(lam, a) == reference_repalg.kostka(lam, a), (lam.parts, a)


@st.composite
def shapes_and_contents(draw):
    """A partition of at most 4 rows of at most 4 cells, and a content of the
    same size with up to 5 letters, zeros allowed anywhere."""
    parts = sorted(draw(st.lists(st.integers(1, 4), max_size=4)), reverse=True)
    size = sum(parts)
    letters = draw(st.integers(1 if size else 0, 5))
    cuts = sorted(draw(st.lists(st.integers(0, size), min_size=max(letters - 1, 0),
                                max_size=max(letters - 1, 0))))
    bounds = [0] + cuts + [size]
    content = tuple(bounds[i + 1] - bounds[i] for i in range(letters))
    return tuple(parts), content


@settings(max_examples=400, deadline=None)
@given(shapes_and_contents())
def test_kostka_matches_cell_filling(case):
    lam, a = case
    assert kostka(lam, a) == reference_repalg.kostka(lam, a)


@settings(max_examples=100, deadline=None)
@given(shapes_and_contents())
def test_kostka_ignores_the_order_and_the_zeros_of_the_content(case):
    # kostka sorts the content and drops its zeros; the oracle does neither
    lam, a = case
    for order in set(permutations(a)):
        for content in (order, (0,) + order, order[:1] + (0,) + order[1:] + (0,)):
            assert kostka(lam, content) == reference_repalg.kostka(lam, content), content


def test_kostka_negative_entry_and_size_mismatch_as_reference():
    for lam, a in [((2, 1), (4, -1)), ((), (1, -1)), ((3,), (-1, 2, 2))]:
        assert kostka(lam, a) == reference_repalg.kostka(lam, a) == 0
    for lam, a in [((2, 1), (2,)), ((), (1,)), ((1,), ())]:
        with pytest.raises(SizeMismatchError):
            kostka(lam, a)
        with pytest.raises(SizeMismatchError):
            reference_repalg.kostka(lam, a)


def test_margin_sum_matches_pairwise_sum():
    for n in range(2, 5):
        for d in range(8):
            assert suites.margin_sum(n, d) == reference_repalg.margin_sum(n, d), (n, d)


def test_margin_count_is_invariant_under_permuting_margins():
    # the identity N(sigma a, tau b) = N(a, b) the orbit sum in margin_sum rests on
    for rows, cols in product(range(1, 4), repeat=2):
        for d in range(5):
            for a in reference_repalg.compositions(d, rows):
                for b in reference_repalg.compositions(d, cols):
                    count = margin_matrix_count(a, b)
                    for sa in set(permutations(a)):
                        for tb in set(permutations(b)):
                            assert margin_matrix_count(sa, tb) == count, (sa, tb)


def test_weight_blocks_match_filtered_words():
    for n in range(2, 5):
        for d in range(8):
            for content, words in reference_repalg.contents_by_word(n, d).items():
                assert reference_repalg.words_of_content(content) == words, content


# The tensor pairs of the combinatorics benchmark, and four more: d = 0, long
# words, and n = 5, 6.
GOLDEN_TENSOR_PAIRS = (
    [(n, d) for n in (2, 3, 4) for d in range(1, 7)]
    + [(3, 7), (3, 8), (4, 6), (4, 7)]
    + [(2, 0), (2, 12), (5, 5), (6, 4)]
)
# sha256 of their Decomposition.to_json, one sorted-key JSON line each
TENSOR_DIGEST = "70be7cf1f3cf08dd369a7ed778dd9d86332b12d917cc739f2117040fd07aeb8c"


def test_decompositions_golden_digest():
    digest = hashlib.sha256()
    for n, d in GOLDEN_TENSOR_PAIRS:
        payload = json.dumps(decompose_tensor(n, d).to_json(), sort_keys=True)
        digest.update(payload.encode() + b"\n")
    assert digest.hexdigest() == TENSOR_DIGEST


def test_multiplicities_match_raising_operator_kernels():
    for n, d in GOLDEN_TENSOR_PAIRS:
        got = {
            c.gl_partition.parts + (0,) * (n - len(c.gl_partition.parts)): c.multiplicity
            for c in decompose_tensor(n, d).constituents
        }
        assert got == reference_repalg.singular_multiplicities(n, d), (n, d)


def _hook_product(parts: tuple[int, ...]) -> int:
    columns = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    product_ = 1
    for i, row in enumerate(parts):
        for j in range(row):
            product_ *= (row - j - 1) + (columns[j] - i - 1) + 1
    return product_


def test_standard_tableaux_match_hook_length_formula():
    for d in range(13):
        for lam in gl_partitions(d, max(d, 1)):
            hooks = _hook_product(lam.parts)
            assert kostka(lam, (1,) * d) == factorial(d) // hooks, lam.parts
            assert factorial(d) % hooks == 0


def test_wrong_multiplicity_fails_the_checksum(monkeypatch, capsys):
    """The checksum is the only certificate of the multiplicities: one too
    many copies of L(2,1) in (Q^3)^{tensor 3} fails it, and the CLI reports
    that as a failed check."""
    real = repalg.kostka
    monkeypatch.setattr(
        repalg, "kostka", lambda lam, a: real(lam, a) + (lam.parts == (2, 1))
    )
    with pytest.raises(IncompatibleError, match="checksum 35 != 27"):
        decompose_tensor(3, 3)
    assert cli.main(["quotients", "--n", "3", "--d", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: decomposition checksum 35 != 27"]
    assert "Traceback" not in err
