from geocrystal.cartan import HighestWeight, Weight, pair_with_coroot
from geocrystal.crystal import (
    CrystalGraph,
    crystal_to_dot,
    crystal_to_json,
    e_op,
    eps_k,
    f_op,
    highest_weight_crystal,
    phi_k_word,
    stembridge_verify,
    strata_maps,
    weight_multiplicity,
    yamanouchi_seed,
)
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
    assert f_op((1, 1), 1) == (2, 1)
    assert f_op((2, 1), 1) == (2, 2)
    assert e_op((2, 2), 1) == (2, 1)
    assert e_op((1, 2), 1) is None  # cancelled pair
    assert (eps_k((2, 1), 1), phi_k_word((2, 1), 1)) == (1, 1)
    assert e_op((2, 1), 1) == (1, 1) and f_op((2, 1), 1) == (2, 2)
    assert phi_k_word((1, 1), 1) == 2
    down2 = f_op(f_op((1, 1), 1), 1)
    assert e_op(e_op(down2, 1), 1) == (1, 1)


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
    assert stembridge_verify(g).ok
    assert stembridge_verify(highest_weight_crystal((1, 0, 0))).ok

    edges = dict(g.f_edges)
    (src, k), dst = next(sk_d for sk_d in edges.items() if sk_d[0][1] == 1)
    other = next(w for w in g.sorted_words() if w not in (dst, src))
    edges[(src, k)] = other
    bad = CrystalGraph(g.n, g.w, g.vertices, edges, g.highest)
    report = stembridge_verify(bad)
    assert not report.ok
    assert report.violation is not None


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
