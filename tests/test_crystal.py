import hashlib
import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_crystal import _signature, e_op
from geocrystal import crystal
from geocrystal.cartan import HighestWeight, Weight, pair_with_coroot
from geocrystal.crystal import (
    CrystalGraph,
    CrystalVertex,
    StembridgeReport,
    StrataReport,
    _vertex_of,
    crystal_to_dot,
    crystal_to_json,
    highest_weight_crystal,
    stembridge_verify,
    strata_maps,
    weight_multiplicity,
    word_content,
    yamanouchi_seed,
)
from geocrystal.errors import InternalConsistencyError, InvalidRankError
from geocrystal.repalg import irrep_dim, kostka
from geocrystal.cartan import hw_to_partition


def test_standard_crystal():
    # the letter crystal B(omega_1): vertices 1..n with f_k(k) = k+1
    g2 = highest_weight_crystal((1,))
    assert len(g2) == 2 and len(g2.f_edges) == 1
    g3 = highest_weight_crystal((1, 0))
    assert sorted(g3.vertices) == [(1,), (2,), (3,)]
    assert g3.f_edges == {((1,), 1): (2,), ((2,), 2): (3,)}
    vx = g3.vertices[(2,)]
    assert vx.eps[0] == 1 and vx.phi[0] == 0


def test_golden_bracketing_convention():
    # frozen convention: raising acts on the rightmost surviving letter k+1,
    # lowering on the leftmost surviving letter k
    def f_op(word, k):
        return _vertex(word, 3)[1][k - 1]

    assert f_op((1, 1), 1) == (2, 1)
    assert f_op((2, 1), 1) == (2, 2)
    assert e_op((2, 2), 1) == (2, 1)
    assert e_op((1, 2), 1) is None  # cancelled pair
    vx = _vertex((2, 1), 3)[0]
    assert (vx.eps[0], vx.phi[0]) == (1, 1)
    assert e_op((2, 1), 1) == (1, 1) and f_op((2, 1), 1) == (2, 2)
    assert _vertex((1, 1), 3)[0].phi[0] == 2
    down2 = f_op(f_op((1, 1), 1), 1)
    assert e_op(e_op(down2, 1), 1) == (1, 1)
    # one pass brackets every k and gives eps, phi and the f images together
    vx, images = _vertex((2, 3, 1, 2), 3)
    assert (vx.eps, vx.phi, images) == ((1, 0), (0, 1), [None, (2, 3, 1, 3)])


def _vertex(word, n):
    a = word_content(word, n)
    return _vertex_of(word, n, a, Weight.from_eps(a.parts))


@st.composite
def words(draw):
    n = draw(st.integers(2, 5))
    return n, tuple(draw(st.lists(st.integers(1, n), max_size=12)))


@settings(max_examples=300, deadline=None)
@given(words())
def test_one_pass_bracketing_matches_each_k_bracketing(case):
    # _vertex_of brackets every k in one pass; _signature brackets one k
    n, word = case
    vx, images = _vertex(word, n)
    for k in range(1, n):
        minus, plus = _signature(word, k)
        assert (vx.eps[k - 1], vx.phi[k - 1]) == (len(minus), len(plus))
        flipped = word[: plus[0]] + (k + 1,) + word[plus[0] + 1 :] if plus else None
        assert images[k - 1] == flipped


def test_yamanouchi_seed():
    assert yamanouchi_seed((1, 1)) == (1, 1, 2)
    assert yamanouchi_seed((0, 0)) == ()
    seed = yamanouchi_seed((1, 1))
    for k in (1, 2):
        assert e_op(seed, k) is None


def test_seed_not_killed_raises(monkeypatch):
    # (2, 1, 1) has the weight of (1, 1) but e_1 still acts on its first letter
    monkeypatch.setattr(crystal, "yamanouchi_seed", lambda w: (2, 1, 1))
    with pytest.raises(InternalConsistencyError, match="not killed"):
        highest_weight_crystal((1, 1))


def test_highest_weight_crystal_sizes():
    assert len(highest_weight_crystal((2,))) == 3
    assert len(highest_weight_crystal((1, 1))) == 8
    assert len(highest_weight_crystal((0, 0))) == 1
    assert len(highest_weight_crystal((1, 0, 0))) == 4


def test_vertex_stats():
    g = highest_weight_crystal((1, 1))
    top = g.vertices[g.highest]
    assert top.a.parts == (2, 1, 0)
    assert top.eps == (0, 0)
    assert top.wt == Weight((1, 1))
    lowest = next(
        w for w in g.sorted_words() if g.vertices[w].phi == (0, 0)
    )
    low = g.vertices[lowest]
    assert low.a.parts == (0, 1, 2) and low.phi == (0, 0)
    for word in g.sorted_words():
        vx = g.vertices[word]
        for k in (1, 2):
            assert vx.phi[k - 1] - vx.eps[k - 1] == pair_with_coroot(vx.wt, k)
    assert (9, 9, 9) not in g.vertices


def test_weight_multiplicity():
    g = highest_weight_crystal((1, 1))
    assert weight_multiplicity(g, (1, 1, 1)) == 2
    assert weight_multiplicity(g, (2, 1, 0)) == 1
    assert weight_multiplicity(g, (-1, 2, 2)) == 0


def test_stembridge_pass_and_corruption():
    g = highest_weight_crystal((1, 1))
    assert stembridge_verify(g) == StembridgeReport(True, 8, 25, None)
    assert stembridge_verify(highest_weight_crystal((1, 0, 0))).ok

    def corrupted(edges=g.f_edges, vertex=None):
        """g with the given f-edges, and vertex in place of g's vertex of its word."""
        vertices = dict(g.vertices)
        if vertex is not None:
            vertices[vertex.word] = vertex
        return CrystalGraph(g.n, g.w, vertices, edges, g.highest)

    top, low = g.vertices[(1, 1, 2)], g.vertices[(2, 1, 2)]
    assert g.highest == top.word and g.f_edges[(top.word, 1)] == low.word
    # a non-injective f_1: the e-edges keep one preimage, the later one
    edges = {**g.f_edges, ((1, 1, 2), 1): (2, 1, 3)}
    assert stembridge_verify(corrupted(edges)) == StembridgeReport(
        False, 8, 1, "e_1 f_1 != id at (1, 1, 2)"
    )
    # a wrong eps on the highest vertex
    vx = CrystalVertex(top.word, top.wt, top.a, (1, 0), top.phi)
    assert stembridge_verify(corrupted(vertex=vx)) == StembridgeReport(
        False, 8, 1, "eps_1 not seminormal at (1, 1, 2)"
    )
    # weights that contradict the statistics: at the highest vertex itself,
    # and at its f_1 image, which the highest vertex's weight step reads first
    vx = CrystalVertex(top.word, Weight((0, 1)), top.a, top.eps, top.phi)
    assert stembridge_verify(corrupted(vertex=vx)) == StembridgeReport(
        False, 8, 1, "phi - eps != <h_1, wt> at (1, 1, 2)"
    )
    vx = CrystalVertex(low.word, Weight((0, 1)), low.a, low.eps, low.phi)
    assert stembridge_verify(corrupted(vertex=vx)) == StembridgeReport(
        False, 8, 1, "wt(f_1 x) != wt(x) - alpha_1 at (1, 1, 2)"
    )
    # a redirected f-edge
    edges = dict(g.f_edges)
    (src, k), dst = next(sk_d for sk_d in edges.items() if sk_d[0][1] == 1)
    other = next(w for w in g.sorted_words() if w not in (dst, src))
    edges[(src, k)] = other
    assert stembridge_verify(corrupted(edges)) == StembridgeReport(
        False, 8, 1, "phi_1 not seminormal at (1, 1, 2)"
    )
    # a dropped f-edge
    edges = dict(g.f_edges)
    del edges[next(key for key in edges if key[1] == 2)]
    assert stembridge_verify(corrupted(edges)) == StembridgeReport(
        False, 8, 2, "phi_2 not seminormal at (1, 1, 2)"
    )
    # a two-vertex monochromatic cycle
    edges = dict(g.f_edges)
    (src, k), dst = next(e for e in edges.items() if e[0][1] == 1 and (e[1], 1) not in edges)
    edges[(dst, 1)] = src
    with pytest.raises(InternalConsistencyError, match="monochromatic cycle detected"):
        stembridge_verify(corrupted(edges))


def _swap_strings(a, b, x, y, k):
    """One graph on the vertices of a and then b (words of different shapes
    never coincide), with the k-edges into x and into y exchanged: x and y
    have the same weight and eps_k, so every vertex keeps its k-string
    lengths and weight steps, and only the other colors can see the swap."""
    up_x, up_y = a.e_edges[(x, k)], b.e_edges[(y, k)]
    edges = {**a.f_edges, **b.f_edges, (up_x, k): y, (up_y, k): x}
    return CrystalGraph(a.n, a.w, {**a.vertices, **b.vertices}, edges, a.highest)


@pytest.mark.parametrize(
    "shapes, x, y, k, report",
    [
        # the second pass: an eps_j step outside {0, -a_ij} under e_i
        (((1, 0), (2, 1)), (2,), (3, 2, 1, 2), 1,
         StembridgeReport(False, 18, 44, "eps_2 changed by -1 under e_1 at (3, 2, 1, 2)")),
        (((1, 0), (2, 1)), (3,), (3, 2, 1, 3), 2,
         StembridgeReport(False, 18, 38, "eps_1 changed by 2 under e_2 at (3,)")),
        # the third pass: a broken square and a broken hexagon
        (((1, 0), (0, 2)), (2,), (2, 3, 1, 2), 1,
         StembridgeReport(False, 9, 27, "square e_1/e_2 fails at (2, 3, 1, 3)")),
        (((2, 0), (1, 2)), (3, 2), (3, 2, 3, 1, 2), 1,
         StembridgeReport(False, 21, 67, "hexagon e_1/e_2 fails at (3, 2)")),
    ],
)
def test_stembridge_later_passes_corruption(shapes, x, y, k, report):
    a, b = (highest_weight_crystal(w) for w in shapes)
    g = _swap_strings(a, b, x, y, k)
    assert stembridge_verify(g) == report


def test_strata_maps_corruption():
    g = highest_weight_crystal((2, 1))

    def redirected(src, dst):
        """g with f_1(src) = dst, and the e-edges rebuilt as their inverse."""
        edges = {**g.f_edges, (src, 1): dst}
        return strata_maps(CrystalGraph(g.n, g.w, g.vertices, edges, g.highest), 1)

    cases = [
        (redirected((1, 1, 1, 2), (1, 1, 1, 3)), {0: 1},
         "eps_1(f_1 X) != eps_1(X) + 1 at (1, 1, 1, 2)"),
        (redirected((1, 1, 1, 2), (2, 1, 1, 3)), {0: 1, 1: 1},
         "e_1^1 does not reach the 0-stratum at (2, 1, 1, 2)"),
        (redirected((2, 1, 1, 2), (1, 1, 1, 2)), {0: 1},
         "e_1 vanishing does not match c = 0 at (1, 1, 1, 2)"),
    ]
    for report, sizes, violation in cases:
        assert report == StrataReport(False, 15, sizes, violation)


def test_strata_maps():
    g = highest_weight_crystal((1, 1))
    for k in (1, 2):
        report = strata_maps(g, k)
        assert report.ok
        assert sum(report.stratum_sizes.values()) == 8
    for k in (0, 3):
        with pytest.raises(InvalidRankError, match=f"vertex {k} out of range"):
            strata_maps(g, k)
    # raising kills exactly the highest weight vertex for both colors
    assert all(g.e(g.highest, k) is None for k in (1, 2))
    for word in g.sorted_words():
        for k in (1, 2):
            down = g.f_edges.get((word, k))
            if down is not None:
                assert g.vertices[down].eps[k - 1] == g.vertices[word].eps[k - 1] + 1


def test_crystal_against_kostka_and_dim():
    for w in [(2,), (1, 1), (2, 1), (1, 0, 1)]:
        hw = HighestWeight(w)
        g = highest_weight_crystal(hw)
        lam = hw_to_partition(hw)
        assert len(g) == irrep_dim(lam, hw.n)
        counts = {}
        for word in g.sorted_words():
            a = g.vertices[word].a.parts
            counts[a] = counts.get(a, 0) + 1
        for a, count in counts.items():
            assert count == kostka(lam, a)


def test_dot_output_structure():
    g = highest_weight_crystal((1, 1))
    dot = crystal_to_dot(g)
    lines = dot.strip().splitlines()
    assert lines[0] == "// schema_version 1"
    assert lines[1] == "digraph crystal {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "label=" in l and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 8
    assert all(l.strip().endswith(";") for l in node_lines + edge_lines)
    # deterministic
    assert dot == crystal_to_dot(highest_weight_crystal((1, 1)))


def test_json_output():
    g = highest_weight_crystal((1, 1))
    payload = crystal_to_json(g)
    assert payload["schema_version"] == "1"
    assert payload["vertex_count"] == 8
    assert len(payload["vertices"]) == 8
    assert {e["k"] for e in payload["edges"]} == {1, 2}


# sha256 of crystal_to_json and of the insertion orders of vertices and
# f_edges over the criterion-5 grid; quiver's crystal walk, and so every
# sampled point, depends on those orders
CRYSTALS_DIGEST = "b887ce42df206211e1239cf4a78fe6709ee6ae7396f4f02f7d15bd2332c686e4"


def test_criterion_5_crystals_golden_digest():
    digest = hashlib.sha256()
    crystals = 0
    for n in range(2, 5):
        for w in product(range(9), repeat=n - 1):
            hw = HighestWeight(w)
            if hw.level_d > 8:
                continue
            g = highest_weight_crystal(hw)
            crystals += 1
            order = [list(v) for v in g.vertices]
            edges = [[list(src), k, list(dst)] for (src, k), dst in g.f_edges.items()]
            for chunk in (crystal_to_json(g), order, edges):
                digest.update(json.dumps(chunk, sort_keys=True).encode() + b"\n")
    assert crystals == 75
    assert digest.hexdigest() == CRYSTALS_DIGEST
