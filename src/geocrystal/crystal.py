"""Combinatorial realization of the highest weight crystal via tensor words.

Fixed bracketing convention (frozen by golden tests): for the operator at
vertex k, letter k contributes "+" and letter k+1 contributes "-", read in
word order; a "+" immediately followed by an unmatched "-" cancels.  The
raising operator flips the letter of the rightmost surviving "-", the
lowering operator flips the letter of the leftmost surviving "+".  Seed words
are column readings (right-to-left, top-to-bottom) of the highest tableau,
and the constructor checks that the seed is killed by every raising
operator (each eps_k of it is 0) instead of trusting the convention.
"""

from __future__ import annotations

from collections import Counter
from operator import sub

from .cartan import (
    Composition,
    HighestWeight,
    Weight,
    as_highest_weight,
    cartan_matrix,
    hw_to_partition,
)
from .errors import (
    IncompatibleError,
    InternalConsistencyError,
    InvalidRankError,
)
from .values import Frozen, Value

Word = tuple[int, ...]


def word_content(word: Word, n: int) -> Composition:
    counts = [0] * n
    for letter in word:
        if not 1 <= letter <= n:
            raise IncompatibleError(f"letter {letter} outside 1..{n}")
        counts[letter - 1] += 1
    return Composition(tuple(counts))


class CrystalVertex(Value):
    """A word of the crystal with its weight, content a and the tuples eps_k, phi_k."""

    __slots__ = ("word", "wt", "a", "eps", "phi")


class CrystalGraph(Frozen):
    """Vertices with statistics, the partial e/f edge maps and vertex counts per content.

    e_edges is built as the inverse of f_edges, so f_k e_k = id wherever e_k
    is defined, on every graph this constructor builds.  e_k f_k = id holds
    only where f_k is injective, which is for the checks to decide.
    """

    __slots__ = ("n", "w", "vertices", "f_edges", "e_edges", "highest", "multiplicities")

    def __init__(
        self,
        n: int,
        w: HighestWeight,
        vertices: dict[Word, CrystalVertex],
        f_edges: dict[tuple[Word, int], Word],
        highest: Word,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "f_edges", dict(f_edges))
        object.__setattr__(
            self,
            "e_edges",
            {(dst, k): src for (src, k), dst in f_edges.items()},
        )
        object.__setattr__(self, "highest", highest)
        object.__setattr__(self, "multiplicities", Counter(vx.a.parts for vx in vertices.values()))

    def __len__(self):
        return len(self.vertices)

    def sorted_words(self) -> list[Word]:
        return sorted(self.vertices)

    def e(self, word: Word, k: int) -> Word | None:
        return self.e_edges.get((word, k))


def _vertex_of(word: Word, n: int, a: Composition, wt: Weight) -> tuple[CrystalVertex, list]:
    """The vertex of word and its f_k images, from every k-bracketing in one
    pass over the word: letter l is a "+" for k = l and a "-" for k = l - 1."""
    plus: list[list[int]] = [[] for _ in range(n + 1)]
    minus = [0] * (n + 1)
    for pos, letter in enumerate(word):
        plus[letter].append(pos)
        if plus[letter - 1]:
            plus[letter - 1].pop()
        else:
            minus[letter - 1] += 1
    eps, phi = tuple(minus[1:n]), tuple(map(len, plus[1:n]))
    if tuple(map(sub, phi, eps)) != wt.omega:
        raise InternalConsistencyError("phi - eps != <h_k, wt>")
    images = [
        word[: pos[0]] + (k + 1,) + word[pos[0] + 1 :] if pos else None
        for k, pos in enumerate(plus[1:n], start=1)
    ]
    return CrystalVertex._trusted(word, wt, a, eps, phi), images


def yamanouchi_seed(w) -> Word:
    """Column reading (right-to-left, top-to-bottom) of the highest tableau."""
    w = as_highest_weight(w)
    lam = hw_to_partition(w)
    conj = lam.conjugate().parts
    word: list[int] = []
    for col in range(len(conj), 0, -1):
        word.extend(range(1, conj[col - 1] + 1))
    return tuple(word)


def highest_weight_crystal(w) -> CrystalGraph:
    """Closure of the Yamanouchi seed of shape lambda(w) under all f_k, breadth
    first: vertices and f_edges keep their discovery order.  The vertices of
    one content share its Composition and Weight.

    Only the seed's content is validated (``word_content``).  Every other
    content is derived from its parent's: f_k moves one unit from part k to
    part k + 1, and part k >= 1 because the word has a letter k, so the parts
    stay non-negative ints and the Composition is built without a check.
    Its weight still comes from ``Weight.from_eps``, and ``_vertex_of``
    still checks phi - eps = <h_k, wt> on every vertex."""
    w = as_highest_weight(w)
    n, seed = w.n, yamanouchi_seed(w)
    content = word_content(seed, n)
    shared: dict[tuple[int, ...], tuple[Composition, Weight]] = {
        content.parts: (content, Weight.from_eps(content.parts))
    }

    def vertex(word: Word, parts: tuple[int, ...]):
        if parts not in shared:
            shared[parts] = Composition._trusted(parts), Weight.from_eps(parts)
        return _vertex_of(word, n, *shared[parts])

    vertices, images, f_edges = {}, {}, {}
    vertices[seed], images[seed] = vertex(seed, content.parts)
    for k, eps in enumerate(vertices[seed].eps, start=1):
        if eps:
            raise InternalConsistencyError(
                f"seed {seed} is not killed by the raising operator at {k}"
            )
    if vertices[seed].wt.omega != w.w:
        raise InternalConsistencyError(f"seed weight {vertices[seed].wt.omega} != {w.w}")
    queue = [seed]
    for word in queue:  # grows while it is read: a first-in, first-out queue
        for k, image in enumerate(images[word], start=1):
            if image is None:
                continue
            f_edges[(word, k)] = image
            if image not in vertices:
                a = vertices[word].a.parts  # f_k turns one letter k into k + 1
                parts = a[: k - 1] + (a[k - 1] - 1, a[k] + 1) + a[k + 1 :]
                vertices[image], images[image] = vertex(image, parts)
                queue.append(image)
    return CrystalGraph(n, w, vertices, f_edges, seed)


def weight_multiplicity(g: CrystalGraph, a) -> int:
    """Number of vertices whose composition equals a; 0 if a has a negative entry."""
    return g.multiplicities.get(tuple(a), 0)


class StembridgeReport(Value):
    """Verdict of the Stembridge axioms, with the first violation if any."""

    __slots__ = ("ok", "vertices", "checks", "violation")


def _chain_lengths(step: dict[tuple[Word, int], Word], k: int, words) -> dict[Word, int | None]:
    """Number of k-steps along step from each word until none is defined,
    None where the walk runs into a cycle.  Each walk stops at the first word
    whose length is known, so every k-string is walked once."""
    lengths: dict[Word, int | None] = {}
    for word in words:
        path: list[Word] = []
        node: Word | None = word
        while node is not None and node not in lengths:
            lengths[node] = None  # on the walk: meeting it again closes a cycle
            path.append(node)
            node = step.get((node, k))
        length = -1 if node is None else lengths[node]
        for node in reversed(path):
            length = None if length is None else length + 1
            lengths[node] = length
    return lengths


def stembridge_verify(g: CrystalGraph) -> StembridgeReport:
    """Check the simply-laced local axioms on the stored graph structure.

    Verified per vertex: e_k f_k = id, seminormal statistics
    (eps/phi equal the monochromatic chain lengths), weight steps, the
    eps/phi difference bounds across an edge of a different color, the
    commuting square for non-boosting pairs and the hexagon relation for
    doubly-boosting adjacent pairs.  Returns the first violation found.
    f_k e_k = id is not checked: CrystalGraph builds e_edges as the inverse
    of f_edges, so it holds on every graph.
    The chain lengths come from one walk per k-string: a vertex's e_k chain
    is one longer than the chain of e_k of it, and likewise for f_k.  A
    chain length is 0 exactly where its operator is undefined, so the
    seminormal checks also decide definedness; and once the first pass holds,
    the phi_j step under e_i is the eps_j step plus a_ij, so only the eps
    step is checked.
    """
    n, vertices, size = g.n, g.vertices, len(g)
    up, down = g.e_edges.get, g.f_edges.get
    checks = 0

    def fail(msg: str) -> StembridgeReport:
        return StembridgeReport(False, size, checks, msg)

    def chain(lengths: dict[Word, int | None], word: Word) -> int:
        length = lengths[word]
        if length is None or length > size:
            raise InternalConsistencyError("monochromatic cycle detected")
        return length

    cartan = cartan_matrix(n)
    alpha = [tuple(row[k] for row in cartan) for k in range(n - 1)]
    e_len = [_chain_lengths(g.e_edges, k, vertices) for k in range(1, n)]
    f_len = [_chain_lengths(g.f_edges, k, vertices) for k in range(1, n)]
    for word, vx in vertices.items():
        eps, phi, omega = vx.eps, vx.phi, vx.wt.omega
        for k, alpha_k in enumerate(alpha, start=1):
            below = down((word, k))
            checks += 1
            if below is not None and up((below, k)) != word:
                return fail(f"e_{k} f_{k} != id at {word}")
            if chain(e_len[k - 1], word) != eps[k - 1]:
                return fail(f"eps_{k} not seminormal at {word}")
            if chain(f_len[k - 1], word) != phi[k - 1]:
                return fail(f"phi_{k} not seminormal at {word}")
            if phi[k - 1] - eps[k - 1] != omega[k - 1]:
                return fail(f"phi - eps != <h_{k}, wt> at {word}")
            if below is not None and tuple(map(sub, omega, vertices[below].wt.omega)) != alpha_k:
                return fail(f"wt(f_{k} x) != wt(x) - alpha_{k} at {word}")
    for word, vx in vertices.items():
        for i in range(1, n):
            up_i = up((word, i))
            if up_i is None:
                continue
            upper = vertices[up_i]
            for j in range(1, n):
                if j == i:
                    continue
                checks += 1
                d_eps = upper.eps[j - 1] - vx.eps[j - 1]
                if d_eps not in (0, -cartan[i - 1][j - 1]):
                    return fail(f"eps_{j} changed by {d_eps} under e_{i} at {word}")
    for word, vx in vertices.items():
        for i in range(1, n):
            up_i = up((word, i))
            if up_i is None:
                continue
            for j in range(i + 1, n):
                up_j = up((word, j))
                if up_j is None:
                    continue
                checks += 1
                boost_j = vertices[up_i].eps[j - 1] - vx.eps[j - 1]
                boost_i = vertices[up_j].eps[i - 1] - vx.eps[i - 1]
                if boost_j == 0 or boost_i == 0:
                    a = up((up_i, j))
                    b = up((up_j, i))
                    if a is None or b is None or a != b:
                        return fail(f"square e_{i}/e_{j} fails at {word}")
                else:
                    a = up_i
                    for step in (j, j, i):
                        a = up((a, step)) if a is not None else None
                    b = up_j
                    for step in (i, i, j):
                        b = up((b, step)) if b is not None else None
                    if a is None or b is None or a != b:
                        return fail(f"hexagon e_{i}/e_{j} fails at {word}")
    return StembridgeReport(True, len(g), checks, None)


class StrataReport(Value):
    """Verdict of the strata factorization, with the stratum sizes by eps_k."""

    __slots__ = ("ok", "vertex_count", "stratum_sizes", "violation")


def strata_maps(g: CrystalGraph, k: int) -> StrataReport:
    """Verify that both operators factor through the eps_k = 0 stratum.

    For eps_k(X) = c: e_k^c lands in the 0-stratum; e_k vanishes exactly on
    the 0-stratum; f_k raises eps_k by one.  The composites f_k^{c-1} e_k^c
    = e_k and f_k^{c+1} e_k^c = f_k are not checked: once e_k^c X is defined
    they follow from f_k e_k = id, which holds by construction of e_edges
    (see CrystalGraph).
    """
    if not 1 <= k <= g.n - 1:
        raise InvalidRankError(f"vertex {k} out of range")
    sizes: dict[int, int] = {}
    up, down = g.e_edges.get, g.f_edges.get

    def fail(msg: str) -> StrataReport:
        return StrataReport(False, len(g), sizes, msg)

    for word, vx in g.vertices.items():
        c = vx.eps[k - 1]
        sizes[c] = sizes.get(c, 0) + 1
        reduced: Word | None = word
        for _ in range(c):
            reduced = up((reduced, k))  # (None, k) is no key: None stays None
        if reduced is None or g.vertices[reduced].eps[k - 1] != 0:
            return fail(f"e_{k}^{c} does not reach the 0-stratum at {word}")
        if (up((word, k)) is None) != (c == 0):
            return fail(f"e_{k} vanishing does not match c = 0 at {word}")
        below = down((word, k))
        if below is not None and g.vertices[below].eps[k - 1] != c + 1:
            return fail(f"eps_{k}(f_{k} X) != eps_{k}(X) + 1 at {word}")
    return StrataReport(True, len(g), sizes, None)


def _word_id(word: Word) -> str:
    return "w" + "".join(str(a) for a in word)


def crystal_to_dot(g: CrystalGraph) -> str:
    """Deterministic DOT: nodes labeled by composition, edges labeled by k."""
    lines = [
        "// schema_version 1",
        "digraph crystal {",
        "  rankdir=TB;",
    ]
    for word in g.sorted_words():
        a = g.vertices[word].a.parts
        label = "(" + ",".join(str(c) for c in a) + ")"
        lines.append(f'  {_word_id(word)} [label="{label}"];')
    edges = sorted(g.f_edges.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    for (src, k), dst in edges:
        lines.append(f'  {_word_id(src)} -> {_word_id(dst)} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def crystal_to_json(g: CrystalGraph) -> dict:
    """Deterministic JSON payload with vertices, edges and summary stats."""
    vertices = []
    for word in g.sorted_words():
        vx = g.vertices[word]
        vertices.append(
            {
                "word": "".join(str(a) for a in word),
                "a": vx.a.to_json(),
                "wt": vx.wt.to_json(),
                "eps": list(vx.eps),
                "phi": list(vx.phi),
            }
        )
    edges = [
        {"from": "".join(str(a) for a in src), "k": k, "to": "".join(str(a) for a in dst)}
        for (src, k), dst in sorted(g.f_edges.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    ]
    return {
        "schema_version": "1",
        "n": g.n,
        "w": g.w.to_json(),
        "highest": "".join(str(a) for a in g.highest),
        "vertex_count": len(g),
        "vertices": vertices,
        "edges": edges,
        "weight_multiplicities": [
            {"a": list(a), "count": c} for a, c in sorted(g.multiplicities.items())
        ],
    }
