import hashlib
import json
from itertools import product

import pytest

from geocrystal.cartan import HighestWeight, Weight, pair_with_coroot
from geocrystal.crystal import (
    CrystalGraph,
    StembridgeReport,
    _vertex_of,
    crystal_to_dot,
    crystal_to_json,
    e_op,
    highest_weight_crystal,
    stembridge_verify,
    strata_maps,
    weight_multiplicity,
    yamanouchi_seed,
)
from geocrystal.errors import InternalConsistencyError
from geocrystal.repalg import irrep_dim, kostka
from geocrystal.cartan import hw_to_partition


def test_standard_crystal():
    # the letter crystal B(omega_1): vertices 1..n with f_k(k) = k+1
    g2 = highest_weight_crystal((1,))
    assert len(g2) == 2 and len(g2.f_edges) == 1
    g3 = highest_weight_crystal((1, 0))
    assert sorted(g3.vertices) == [(1,), (2,), (3,)]
    assert g3.f((1,), 1) == (2,)
    assert g3.f((2,), 2) == (3,)
    assert g3.f((2,), 1) is None
    vx = g3.vertices[(2,)]
    assert vx.eps[0] == 1 and vx.phi[0] == 0


def test_golden_bracketing_convention():
    # frozen convention: raising acts on the rightmost surviving letter k+1,
    # lowering on the leftmost surviving letter k
    def f_op(word, k):
        return _vertex_of(word, 3)[1][k - 1]

    assert f_op((1, 1), 1) == (2, 1)
    assert f_op((2, 1), 1) == (2, 2)
    assert e_op((2, 2), 1) == (2, 1)
    assert e_op((1, 2), 1) is None  # cancelled pair
    vx = _vertex_of((2, 1), 3)[0]
    assert (vx.eps[0], vx.phi[0]) == (1, 1)
    assert e_op((2, 1), 1) == (1, 1) and f_op((2, 1), 1) == (2, 2)
    assert _vertex_of((1, 1), 3)[0].phi[0] == 2
    down2 = f_op(f_op((1, 1), 1), 1)
    assert e_op(e_op(down2, 1), 1) == (1, 1)
    # one bracketing per k gives eps, phi and the f image together
    vx, images = _vertex_of((2, 3, 1, 2), 3)
    assert (vx.eps, vx.phi, images) == ((1, 0), (0, 1), [None, (2, 3, 1, 3)])


def test_yamanouchi_seed():
    assert yamanouchi_seed((1, 1)) == (1, 1, 2)
    assert yamanouchi_seed((0, 0)) == ()
    seed = yamanouchi_seed((1, 1))
    for k in (1, 2):
        assert e_op(seed, k) is None


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

    def corrupted(edges):
        return CrystalGraph(g.n, g.w, g.vertices, edges, g.highest)

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


def test_strata_maps():
    g = highest_weight_crystal((1, 1))
    for k in (1, 2):
        report = strata_maps(g, k)
        assert report.ok
        assert sum(report.stratum_sizes.values()) == 8
    # raising kills exactly the highest weight vertex for both colors
    assert all(g.e(g.highest, k) is None for k in (1, 2))
    for word in g.sorted_words():
        for k in (1, 2):
            down = g.f(word, k)
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
