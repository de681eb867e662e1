"""A_{n-1} quiver representation points (B, i, j): moment map, stability,
the Lagrangian locus, dimension/sign formulas, Hecke quotients at one vertex
and the point-level maximal stratum reduction.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from .cartan import (
    DimVec,
    HighestWeight,
    a_of_vw,
    alpha_weight,
    as_dimvec,
    as_highest_weight,
)
from .errors import (
    DimensionMismatchError,
    IncompatibleError,
    InvalidRankError,
    LambdaPreconditionError,
    NotInImageError,
    SampleExhaustedError,
)
from .linalg import (
    RatMat,
    Subspace,
    _echelon,
    _echelon_rows,
    _json_int,
    _json_keys,
    _json_list,
    _kernel_ints,
    _matmul,
    _product_map_rows,
    full_space,
    kernel,
    rank,
    rref,
)
from .values import Frozen, Value

Edge = tuple[int, int]  # (out(h), inc(h)) with |out - inc| = 1
Edges = tuple[Edge, ...]
Rows = Sequence[Sequence[int]]  # a map as integer rows

# The sampler draws every integer entry from [ENTRY_LO, ENTRY_HI].
ENTRY_LO, ENTRY_HI = -2, 2
MAX_TRIES = 32  # rejection-sampling attempts before the crystal-guided walk

# The map keys QuiverRep.to_json writes: B:a->b, i:k and j:k in plain decimal.
_INDEX = "(0|[1-9][0-9]*)"
_MAP_KEY = re.compile(f"B:{_INDEX}->{_INDEX}|([ij]):{_INDEX}")


def _json_ints(value, name: str) -> list[int]:
    return [_json_int(c, name) for c in _json_list(value, name)]


class QuiverShape(Value):
    """Vertices 1..n-1; edges h_{k,l} for |k-l|=1; orientation = leftward."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise InvalidRankError(f"n must be >= 2, got {n}")
        super().__init__(n)

    @property
    def vertices(self) -> range:
        return range(1, self.n)

    def edges(self) -> Edges:
        """The leftward edges, then the rightward ones, each by ascending out(h)."""
        return _edge_lists(self.n)[0]

    def omega(self) -> list[Edge]:
        """The fixed orientation: edges heading left."""
        return [(k, k - 1) for k in range(2, self.n)]

    @staticmethod
    def bar(h: Edge) -> Edge:
        return (h[1], h[0])

    @staticmethod
    def sign(h: Edge) -> int:
        """+1 on the orientation (leftward), -1 on its reversal."""
        return 1 if h[0] == h[1] + 1 else -1

    def edges_into(self, k: int) -> Edges:
        return _edge_lists(self.n)[1].get(k, ())

    def edges_out_of(self, k: int) -> Edges:
        return _edge_lists(self.n)[2].get(k, ())

    def moment_terms(self, k: int) -> tuple[tuple[Edge, Edge, int], ...]:
        """(h, bar h, sign h) per edge h into k: mu_k = sum sign(h) B_h B_{bar h} + i_k j_k."""
        return _edge_lists(self.n)[3].get(k, ())


@lru_cache(maxsize=None)
def _edge_lists(n: int) -> tuple[Edges, dict, dict, dict]:
    """The edges of the A_{n-1} quiver, those into and out of each vertex in
    the same order, and each vertex's moment_terms; built once, hence tuples."""
    edges = tuple((k, k - 1) for k in range(2, n)) + tuple((k, k + 1) for k in range(1, n - 1))
    into = {k: tuple(h for h in edges if h[1] == k) for k in range(1, n)}
    out_of = {k: tuple(h for h in edges if h[0] == k) for k in range(1, n)}
    bar, sign = QuiverShape.bar, QuiverShape.sign
    terms = {k: tuple((h, bar(h), sign(h)) for h in hs) for k, hs in into.items()}
    return edges, into, out_of, terms


def _take_maps(name: str, given, keys, shape_of) -> dict:
    """The maps of given at every key, zero where absent, as a new dict; a
    map of the wrong shape or a key outside keys raises DimensionMismatchError."""
    given = dict(given or {})
    out = {}
    for key in keys:
        m = given.pop(key, None)
        expected = shape_of(key)
        if m is None:
            m = RatMat.zeros(*expected)
        elif m.shape != expected:
            raise DimensionMismatchError(f"{name}[{key}] has shape {m.shape}, want {expected}")
        out[key] = m
    if given:
        raise DimensionMismatchError(f"unknown {name} keys {sorted(given)}")
    return out


class QuiverRep(Frozen):
    """A point (B, i, j) on graded spaces (V, W) for the A_{n-1} quiver.

    All edge maps are materialized (zero by default): B[(k,l)] maps V_k to
    V_l, i[k] maps W_k to V_k, j[k] maps V_k to W_k.  The point is immutable,
    so :func:`in_Lambda`, :func:`is_stable` and :func:`joint_outgoing_kernel`
    record their results on it and compute each at most once per point.
    """

    __slots__ = ("shape", "v", "w", "B", "i", "j", "_in_lambda", "_stable", "_kernels")

    def __init__(self, n: int, v, w, B=None, i=None, j=None):
        shape = QuiverShape(n)
        v = as_dimvec(v)
        w = as_highest_weight(w)
        if v.n != n or w.n != n:
            raise DimensionMismatchError("v or w rank does not match n")
        full_B = _take_maps("B", B, shape.edges(), lambda h: (v[h[1] - 1], v[h[0] - 1]))
        full_i = _take_maps("i", i, shape.vertices, lambda k: (v[k - 1], w[k - 1]))
        full_j = _take_maps("j", j, shape.vertices, lambda k: (w[k - 1], v[k - 1]))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "B", full_B)
        object.__setattr__(self, "i", full_i)
        object.__setattr__(self, "j", full_j)
        object.__setattr__(self, "_in_lambda", None)
        object.__setattr__(self, "_stable", None)
        object.__setattr__(self, "_kernels", {})

    @property
    def n(self) -> int:
        return self.shape.n

    def __repr__(self):
        return f"QuiverRep(n={self.n}, v={self.v.v}, w={self.w.w})"

    def to_json(self) -> dict:
        maps = {}
        for (a, b), m in sorted(self.B.items()):
            maps[f"B:{a}->{b}"] = m.to_json()
        for k, m in sorted(self.i.items()):
            maps[f"i:{k}"] = m.to_json()
        for k, m in sorted(self.j.items()):
            maps[f"j:{k}"] = m.to_json()
        return {
            "schema_version": "1",
            "n": self.n,
            "v": self.v.to_json(),
            "w": self.w.to_json(),
            "maps": maps,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuiverRep":
        """Inverse of to_json.  The keys are those to_json writes, no others,
        and schema_version, if given, is "1"; n, v and w must be JSON integers
        and every map key must be written as to_json writes it, so no two keys
        name one map; anything else raises ValueError (or KeyError for a
        missing field)."""
        if not isinstance(obj, dict) or not isinstance(obj.get("maps", {}), dict):
            raise ValueError("a quiver point is an object whose 'maps' is an object")
        _json_keys(obj, ("schema_version", "n", "v", "w", "maps"), "quiver point")
        try:
            n = _json_int(obj["n"], "n")
            v, w = _json_ints(obj["v"], "v"), _json_ints(obj["w"], "w")
            B: dict[Edge, RatMat] = {}
            i: dict[int, RatMat] = {}
            j: dict[int, RatMat] = {}
            for key, payload in obj.get("maps", {}).items():
                match = _MAP_KEY.fullmatch(key)
                if match is None:
                    raise IncompatibleError(f"unknown map key {key!r}")
                a, b, kind, k = match.groups()
                m = RatMat.from_json(payload)
                if kind is None:
                    B[(int(a), int(b))] = m
                else:
                    (i if kind == "i" else j)[int(k)] = m
            return cls(n, v, w, B=B, i=i, j=j)
        except TypeError as exc:
            raise ValueError(f"bad quiver point: {exc}") from exc


def moment_map_vanishes(r: QuiverRep) -> bool:
    """True iff every mu_k, the sum of sign(h) B_h B_hbar over the edges h
    into k plus i_k j_k, is zero; decided on the maps' integer rows, each
    nonzero term's product scaled to the lcm of the terms' denominators."""
    for k in r.shape.vertices:
        terms = [(sign, r.B[h], r.B[hbar]) for h, hbar, sign in r.shape.moment_terms(k)]
        terms.append((1, r.i[k], r.j[k]))
        terms = [(s, a, b) for s, a, b in terms if not (a.is_zero() or b.is_zero())]
        den = lcm(*(a.den * b.den for _, a, b in terms))
        total = [0] * r.v[k - 1] ** 2
        for sign, a, b in terms:
            c = sign * (den // (a.den * b.den))
            cols = list(zip(*b.num))
            products = (sum(map(mul, row, col)) for row in a.num for col in cols)
            total = [t + c * p for t, p in zip(total, products)]
        if any(total):
            return False
    return True


def _closure_rows(
    v: DimVec, i: dict[int, Rows], B: dict[Edge, Rows]
) -> dict[int, list[list[int]]]:
    """The B-closure of im i, vertex by vertex, as integer echelon rows in the
    coordinates of V_k; the rank at k is the number of rows.

    i[k] and B[h] are integer rows, each any nonzero multiple of its map:
    scaling a map does not change its image, so neither the spans nor their
    ranks depend on the multiples.  A worklist of the vertices whose span
    grew: only their outgoing edges can enlarge another span, and a full span
    cannot grow.  The work stops early once every span is full.
    """
    shape = QuiverShape(v.n)
    dims = {k: v[k - 1] for k in shape.vertices}
    # the columns of i_k, as rows of V_k
    spans = {k: _echelon_rows(list(zip(*i[k])), dims[k]) for k in shape.vertices}
    short = sum(len(spans[k]) < dims[k] for k in spans)
    pending = [k for k in shape.vertices if spans[k]]
    while pending and short:
        a = pending.pop()
        for h in shape.edges_out_of(a):
            b = h[1]
            if len(spans[b]) == dims[b]:
                continue
            # B_h u for each spanning row u of V_a, as a row of V_b
            image = [[sum(map(mul, u, row)) for row in B[h]] for u in spans[a]]
            grown = _echelon_rows(spans[b] + image, dims[b])
            if len(grown) > len(spans[b]):
                spans[b] = grown
                short -= len(grown) == dims[b]
                if b not in pending:
                    pending.append(b)
    return spans


def _spans_full(v: DimVec, spans: dict[int, list[list[int]]]) -> bool:
    """True iff the closure spans every V_k: the stability verdict."""
    return all(len(rows) == v[k - 1] for k, rows in spans.items())


def _map_rows(r: QuiverRep) -> tuple[dict[int, Rows], dict[Edge, Rows]]:
    """The integer rows of r's i and B maps, the input of _closure_rows."""
    return {k: m.num for k, m in r.i.items()}, {h: m.num for h, m in r.B.items()}


def is_stable(r: QuiverRep) -> bool:
    """True iff the B-closure of im i is all of V: no proper B-stable graded
    subspace contains im i.  Only the ranks of the closure are compared, and
    the verdict is recorded on r, so it is proved once per point."""
    if r._stable is None:
        object.__setattr__(r, "_stable", _spans_full(r.v, _closure_rows(r.v, *_map_rows(r))))
    return r._stable


def in_Lambda(r: QuiverRep) -> bool:
    """j = 0 and moment map = 0: the Lagrangian locus, whose third condition,
    B nilpotent, these two force (Lusztig's theorem, see lambda_failure)."""
    if r._in_lambda is None:
        lambda_failure(r)
    return r._in_lambda


def lambda_failure(r: QuiverRep) -> str | None:
    """The first condition of the Lagrangian locus that r fails (j = 0, then
    moment map = 0), or None; records on r whether it is None, so in_Lambda
    proves the predicate once per point.

    B nilpotent is not tested: with j = 0 and mu = 0, (V, B) is a module over
    the preprojective algebra of the Dynkin quiver A_{n-1}, which is finite
    dimensional, so B is nilpotent (Lusztig, "Quivers, perverse sheaves, and
    quantized enveloping algebras", 1991)."""
    if any(not m.is_zero() for m in r.j.values()):
        reason = "j nonzero"
    elif not moment_map_vanishes(r):
        reason = "moment map nonzero"
    else:
        reason = None
    object.__setattr__(r, "_in_lambda", reason is None)
    return reason


def epsilon_k_point(r: QuiverRep, k: int) -> int:
    """Dimension of the joint kernel of all B_h with out(h) = k."""
    if not 1 <= k <= r.n - 1:
        raise InvalidRankError(f"vertex {k} out of range")
    return joint_outgoing_kernel(r, k).dim


def joint_outgoing_kernel(r: QuiverRep, k: int) -> Subspace:
    """The joint kernel of all B_h with out(h) = k, recorded on r."""
    if k not in r._kernels:
        outgoing = r.shape.edges_out_of(k)
        if outgoing:
            r._kernels[k] = kernel(RatMat.block([[r.B[h]] for h in outgoing]))
        else:
            r._kernels[k] = full_space(r.v[k - 1])
    return r._kernels[k]


def dim_and_signs(v, w) -> tuple[int, tuple[int, ...]]:
    """dim M(v,w) = v.(2w - Cv) and (r_1, ..., r_{n-1}) with
    r_k(v,w) = -e^k.(w - Cv) - 1, from one Cv."""
    v, w = as_dimvec(v), as_highest_weight(w)
    if v.n != w.n:
        raise DimensionMismatchError("rank mismatch")
    Cv = alpha_weight(v).omega
    dimM = sum(vk * (2 * wk - cvk) for vk, wk, cvk in zip(v, w, Cv))
    return dimM, tuple(cvk - wk - 1 for wk, cvk in zip(w, Cv))


def quotient_by_invariant_subspace(r: QuiverRep, k: int, S: Subspace) -> QuiverRep:
    """Induced point on V/S for a subspace S of V_k killed by j_k and by every
    map out of k (Nakajima's Hecke correspondence at k): V_k becomes V_k/S,
    the other spaces and the maps between them are unchanged."""
    if not 1 <= k <= r.n - 1:
        raise InvalidRankError(f"vertex {k} out of range")
    vk, sk = r.v[k - 1], S.dim
    if S.ambient_dim != vk:
        raise DimensionMismatchError(f"S lives in wrong ambient for V_{k}")
    if not (r.j[k] * S.basis).is_zero():
        raise IncompatibleError(f"j_{k} does not kill S")
    for h in r.shape.edges_out_of(k):
        if not (r.B[h] * S.basis).is_zero():
            raise IncompatibleError(f"S is not B-invariant along {h}")
    # The pivot columns P of [S | 1] are the S basis followed by the standard
    # vectors that complete it, each taken when it is not in the span of those
    # before.  The reduced rows are P^-1 [S | 1], so the right block is P^-1,
    # whose last vk - sk rows are the quotient map.
    both = RatMat.block([[S.basis, RatMat.identity(vk)]])
    red, pivots = rref(both)
    proj = red.select(range(sk, vk), range(sk, sk + vk))
    emb = both.select(range(vk), pivots[sk:])
    newB = dict(r.B)
    for h in r.shape.edges_into(k):
        newB[h] = proj * r.B[h]
    for h in r.shape.edges_out_of(k):
        newB[h] = r.B[h] * emb
    newi = {**r.i, k: proj * r.i[k]}
    newj = {**r.j, k: r.j[k] * emb}
    newv = tuple(r.v[t] - (sk if t == k - 1 else 0) for t in range(r.n - 1))
    return QuiverRep(r.n, newv, r.w, B=newB, i=newi, j=newj)


def kashiwara_reduce(r: QuiverRep, k: int) -> tuple[QuiverRep, int]:
    """Quotient by the joint outgoing kernel at vertex k (the unique maximal
    stratum reduction); output has epsilon_k = 0 and v' = v - c e^k."""
    if not in_Lambda(r):
        raise LambdaPreconditionError("point is not in the Lagrangian locus")
    if not is_stable(r):
        raise LambdaPreconditionError("point is not stable")
    joint = joint_outgoing_kernel(r, k)
    c = joint.dim
    if c == 0:
        return r, 0
    return quotient_by_invariant_subspace(r, k, joint), c


def apply_gauge(r: QuiverRep, g: dict[int, RatMat]) -> QuiverRep:
    """g(B, i, j) = (g B g^{-1}, g i, j g^{-1}) for vertex-wise invertible g."""
    inv = {k: g[k].inverse() for k in r.shape.vertices}
    newB = {
        (a, b): g[b] * r.B[(a, b)] * inv[a] for (a, b) in r.shape.edges()
    }
    newi = {k: g[k] * r.i[k] for k in r.shape.vertices}
    newj = {k: r.j[k] * inv[k] for k in r.shape.vertices}
    return QuiverRep(r.n, r.v, r.w, B=newB, i=newi, j=newj)


def random_gauge(rng: random.Random, v) -> dict[int, RatMat]:
    """Deterministic per-rng invertible vertex-wise matrices (L*U, unit diag)."""
    v = as_dimvec(v)
    out = {}
    for k in range(1, v.n):
        m = v[k - 1]
        lower = [[int(a == b) for b in range(m)] for a in range(m)]
        upper = [[int(a == b) for b in range(m)] for a in range(m)]
        for a in range(m):
            for b in range(a):
                lower[a][b] = rng.randint(ENTRY_LO, ENTRY_HI)
                upper[b][a] = rng.randint(ENTRY_LO, ENTRY_HI)
        out[k] = RatMat(lower, cols=m) * RatMat(upper, cols=m)
    return out


def _random_kernel_blocks(
    system: list[list[int]], shapes: list[tuple[int, int]], rng: random.Random
) -> tuple[list[list[list[int]]], int]:
    """A random point of the kernel of the integer rows of system, cut
    row-major into blocks of the given shapes, as integer rows over the
    common denominator d; the coefficients on the kernel basis are drawn in
    basis order."""
    ncols = sum(a * b for a, b in shapes)
    # the integer kernel vectors are d times the kernel_basis vectors, so the
    # point is the integer combination over the denominator d; scaling a row
    # of the system changes d and the vectors alike, not the point
    vectors, d = _kernel_ints(system, ncols)
    coeffs = [rng.randint(ENTRY_LO, ENTRY_HI) for _ in vectors]
    solution = [0] * ncols
    for c, vec in zip(coeffs, vectors):
        if c:
            solution = [s + c * a for s, a in zip(solution, vec)]
    blocks = []
    idx = 0
    for rows, cols in shapes:
        blocks.append([solution[idx + p * cols : idx + (p + 1) * cols] for p in range(rows)])
        idx += rows * cols
    return blocks, d


def _maps_over(blocks: dict[Edge, Rows], d: int, v: DimVec) -> dict[Edge, RatMat]:
    """The maps B_h whose integer rows over d are blocks[h], for B_h a map
    out of V_{out(h)} of dimension v."""
    return {h: RatMat._reduce(rows, v[h[0] - 1], d) for h, rows in blocks.items()}


def _moment_map_rows(
    shape: QuiverShape, known: dict[Edge, RatMat], unknown: dict[Edge, tuple[int, int]], vertices
) -> list[list[int]]:
    """The integer rows of mu_k = sum over edges h into k of sign(h) B_h
    B_hbar (with j = 0), for k in vertices, as a linear map of the unknown
    maps; every term must have exactly one unknown factor.

    unknown gives the shape of each unknown map; its unknowns are laid out
    in that order, each block row-major.  The term of h is sign(h) X_h B_hbar
    when h is unknown and sign(h) B_h X_hbar otherwise, and its rows are those
    of :func:`linalg._product_map_rows`: each mu_k scaled by the lcm of the
    known maps' denominators, zero rows left out.
    """
    offsets, ncols = {}, 0
    for h, (a, b) in unknown.items():
        offsets[h] = ncols
        ncols += a * b
    rows: list[list[int]] = []
    for k in vertices:
        terms = []
        for h, hbar, sign in shape.moment_terms(k):
            if h in offsets:
                terms.append((offsets[h], known[hbar], False, sign))
                size = (unknown[h][0], known[hbar].cols)
            else:
                terms.append((offsets[hbar], known[h], True, sign))
                size = (known[h].rows, unknown[hbar][1])
        if terms:
            rows += _product_map_rows(*size, terms, ncols)
    return rows


def _solve_right_maps(
    r_left: dict[Edge, RatMat], n: int, v, rng: random.Random
) -> tuple[dict[Edge, list[list[int]]], int]:
    """Solve mu = 0 (with j = 0) for the rightward maps, given the leftward
    ones; mu is linear in the rightward block.  Returns a random kernel point
    as the integer rows of each rightward map over one denominator d, the
    maps themselves being :func:`_maps_over` of them.

    The system is :func:`_moment_map_rows` at every vertex with the rightward
    maps unknown, ordered edge by edge, so R_a, the rightward map V_a ->
    V_{a+1}, enters mu_a as L_{a+1} R_a and mu_{a+1} as -R_a L_{a+1}, for
    L_{a+1} the leftward map back.
    """
    shape = QuiverShape(n)
    unknown = {h: (v[h[1] - 1], v[h[0] - 1]) for h in map(shape.bar, shape.omega())}
    rows = _moment_map_rows(shape, r_left, unknown, shape.vertices)
    blocks, d = _random_kernel_blocks(rows, list(unknown.values()), rng)
    return dict(zip(unknown, blocks)), d


class _LeftChain:
    """The leftward maps L_k: V_k -> V_{k-1} of a candidate as integer rows,
    each any nonzero multiple of its map, and the ranks r(a, b) of their
    composites L_{a+1}...L_b: V_b -> V_a.  Each composite and each rank is
    found when first asked for."""

    __slots__ = ("v", "left", "_products", "_ranks")

    def __init__(self, v: DimVec, left: dict[Edge, Rows]):
        self.v, self.left = v, left
        self._products: dict[Edge, Rows] = {}
        self._ranks: dict[Edge, int] = {}

    def rank(self, a: int, b: int) -> int:
        """r(a, b) for a <= b, with r(a, a) = v_a and r = 0 when a or b is
        not a vertex."""
        if a < 1 or b >= self.v.n:
            return 0
        if a == b:
            return self.v[a - 1]
        if (a, b) not in self._ranks:
            # a composite through a zero one is zero, and is not multiplied out
            self._ranks[a, b] = self.rank(a, b - 1) and len(
                _echelon(self._product(a, b), self.v[b - 1])[1]
            )
        return self._ranks[a, b]

    def _product(self, a: int, b: int) -> Rows:
        if b == a + 1:
            return self.left[b, a]
        if (a, b) not in self._products:
            self._products[a, b] = _matmul(self._product(a, b - 1), self.left[b, b - 1])
        return self._products[a, b]

    def ext_dim(self) -> int:
        """dim Ext^1(X, X) for X = (V, L), a representation of the linearly
        oriented A_{n-1} quiver: the nullity of the mu = 0 system of the
        rightward maps (j = 0), so the number of kernel coefficients that
        :func:`_solve_right_maps` draws.

        That system is the transpose, under the trace pairing, of the map
        (phi_k) -> (phi_{k-1} L_k - L_k phi_k), whose kernel is End(X) and
        whose cokernel is Ext^1(X, X) (Crawley-Boevey, "Geometry of the
        moment map for representations of quivers", Compositio Math. 2001).
        So the nullity is dim End(X) - <v, v>.  X is a sum of intervals
        I[a, b] (Gabriel), I[a, b] with multiplicity r(a, b) - r(a-1, b) -
        r(a, b+1) + r(a-1, b+1), and Hom(I[a, b], I[c, d]) is one-dimensional
        when a <= c <= b <= d and zero otherwise.
        """
        v, r = self.v.v, self.rank
        last = len(v)
        intervals = [
            (a, b, r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1))
            for a in range(1, last + 1)
            for b in range(a, last + 1)
        ]
        intervals = [(a, b, m) for a, b, m in intervals if m]
        end = sum(m * p for a, b, m in intervals for c, d, p in intervals if a <= c <= b <= d)
        return end - sum(x * x for x in v) + sum(map(mul, v, v[1:]))


def _cannot_be_stable(chain: _LeftChain, w: HighestWeight, right_zero: bool) -> bool:
    """True when no i and no rightward maps R with mu = 0 (R = 0 when
    right_zero) make a stable point with j = 0 and these leftward maps: a
    sound bound on ranks, so such a candidate need not be solved.

    The subspace equal to im i_k + im L_{k+1} + im R_{k-1} at k and to V
    elsewhere is B-stable and contains im i, so stability needs v_k <= w_k
    + rk L_{k+1} + rk R_{k-1} at every k.  rk R_{k-1} is at most 0 when R = 0
    and min(v_{k-1}, v_k) otherwise; also at most v_2 - rk L_2 at k = 2, as
    mu_1 = L_2 R_1 = 0, and v_{n-2} - rk L_{n-1} at k = n - 1, as mu_{n-1} =
    -R_{n-2} L_{n-1} = 0.  At vertex 1, the relations L_{k+1} R_k = R_{k-1}
    L_k move every rightward map of a path to its end, and L_2 R_1 = 0, so a
    path through a rightward map is zero there: V_1 is spanned by im i_1 and
    the images of L_2...L_s i_s, and stability also needs v_1 <= w_1 +
    min(rk L_2, sum over s >= 2 of min(w_s, r(1, s))).
    """
    v, n, r = chain.v, chain.v.n, chain.rank
    for k in range(1, n):
        rho = 0
        if k > 1 and not right_zero:
            rho = min(v[k - 2], v[k - 1])
            if k == 2:
                rho = min(rho, v[1] - r(1, 2))
            if k == n - 1:
                rho = min(rho, v[n - 3] - r(n - 2, n - 1))
        if v[k - 1] > w[k - 1] + r(k, k + 1) + rho:
            return True
    # the bound at k = 1 holds, so min(rk L_2, reach) is reach
    short, reach = v[0] - w[0], 0
    for s in range(2, n):
        if reach >= short:
            break
        reach += min(w[s - 1], r(1, s))
    return reach < short


def _skip_right_maps(chain: _LeftChain, rng: random.Random) -> None:
    """The draws :func:`_solve_right_maps` makes for these leftward maps,
    one coefficient per kernel vector, without the system or its kernel."""
    for _ in range(chain.ext_dim()):
        rng.randint(ENTRY_LO, ENTRY_HI)


def _extend_at_vertex(r: QuiverRep, k: int, s: int, rng: random.Random) -> QuiverRep | None:
    """One random attempt to enlarge V_k by an s-dimensional sink summand.

    The new summand S sits in the joint kernel of the outgoing maps (so the
    outgoing maps kill it); the incoming maps acquire new S-components N_h
    subject to the linear moment-map condition sum eps(h) N_h B_{bar h} = 0,
    and i_k acquires a free S-component.  Returns None when the random choice
    fails to make S reachable (stability would break).
    """
    n = r.n
    shape = r.shape
    incoming = shape.edges_into(k)
    # Unknowns: one s x v_out block per incoming edge; the condition rows are
    # the S-rows of mu_k against the old V_k.
    unknown = {h: (s, r.v[h[0] - 1]) for h in incoming}
    rows = _moment_map_rows(shape, r.B, unknown, (k,))
    solved, d = _random_kernel_blocks(rows, list(unknown.values()), rng)
    blocks = _maps_over(dict(zip(incoming, solved)), d, r.v)
    M = RatMat(
        [[rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(r.w[k - 1])] for _ in range(s)],
        cols=r.w[k - 1],
    )
    if rank(RatMat.block([[M] + [blocks[h] for h in incoming]])) < s:
        return None
    newv = tuple(
        r.v[t] + (s if t == k - 1 else 0) for t in range(n - 1)
    )
    newB: dict[Edge, RatMat] = {}
    for h in shape.edges():
        m = r.B[h]
        if h[0] == k:
            newB[h] = RatMat.block([[m, RatMat.zeros(m.rows, s)]])
        elif h[1] == k:
            newB[h] = RatMat.block([[m], [blocks[h]]])
        else:
            newB[h] = m
    newi = {t: r.i[t] for t in shape.vertices}
    newi[k] = RatMat.block([[r.i[k]], [M]])
    out = QuiverRep(n, newv, r.w, B=newB, i=newi)
    if not (is_stable(out) and in_Lambda(out)):
        return None
    return out


@lru_cache(maxsize=64)
def _cached_crystal(w_tuple: tuple[int, ...]):
    from .crystal import highest_weight_crystal

    return highest_weight_crystal(w_tuple)


def _crystal_guided_sample(v: DimVec, w: HighestWeight, seed: int) -> QuiverRep | None:
    """Constructive sampler walking a lowering path of the crystal model.

    Starting from the zero point, each lowering step at vertex k is realized
    as kashiwara_reduce followed by an extension one dimension bigger; the
    intermediate strata are non-empty because they are crystal vertices.
    Needed because rejection sampling essentially never lands on the stable
    irreducible component in deep strata.
    """
    try:
        a = a_of_vw(v, w)
    except NotInImageError:
        return None
    graph = _cached_crystal(w.w)
    target = min((word for word, vx in graph.vertices.items() if vx.a == a), default=None)
    if target is None:
        return None
    path = []
    word = target
    while word != graph.highest:
        for k in range(1, w.n):
            up = graph.e(word, k)
            if up is not None:
                path.append(k)
                word = up
                break
        else:
            return None
    path.reverse()
    rng = random.Random(seed)
    for _ in range(8):
        point = QuiverRep(w.n, (0,) * (w.n - 1), w)
        ok = True
        for k in path:
            reduced, c = kashiwara_reduce(point, k)
            extended = None
            for _ in range(12):
                extended = _extend_at_vertex(reduced, k, c + 1, rng)
                if extended is not None:
                    break
            if extended is None:
                ok = False
                break
            point = extended
        if ok and point.v == v:
            return point
    return None


def sample_lambda_point(v, w, seed: int) -> QuiverRep:
    """Deterministic sampler for stable Lagrangian points.

    Draws the leftward maps with small random integers (zeroing each edge by
    a coin flip, since stability sometimes forces vanishing leftward maps),
    solves the moment map equations exactly for the rightward maps (leaving
    them zero on every fourth attempt), then draws i.  A candidate whose
    leftward maps already rule out stability is rejected on their ranks
    (:func:`_cannot_be_stable`) before its rightward maps are solved.  It
    still makes the solve's draws, one per kernel vector of the mu = 0
    system; their count is dim Ext^1 of the leftward representation
    (Crawley-Boevey, "Geometry of the moment map for representations of
    quivers", Compositio Math. 2001), read off its interval decomposition
    (Gabriel) by :meth:`_LeftChain.ext_dim`, so every later candidate is the
    one the solve would have left.  Every other candidate is decided on
    integer rows: :func:`_closure_rows` reads the leftward maps and i as
    drawn, and the rightward maps as the solve returns them, d times the
    maps, with the same images.  Only a candidate the closure finds
    stable becomes a QuiverRep, which records that verdict: its maps are
    nonzero multiples of the rows the closure read.  Lambda (j = 0 and
    moment map = 0, which force B nilpotent by Lusztig's theorem, see
    lambda_failure) is proved on the object, and holds on every candidate:
    the solve puts the rightward maps in the kernel of mu, and zero ones kill
    every term of mu.  Deep strata where rejection sampling
    cannot find the stable component fall through to the crystal-guided
    constructive walk.  Raises SampleExhaustedError when the locus appears
    empty.
    """
    v, w = as_dimvec(v), as_highest_weight(w)
    if v.n != w.n:
        raise DimensionMismatchError("rank mismatch")
    n = v.n
    rng = random.Random(seed)
    left_edges = QuiverShape(n).omega()
    # the rightward maps of the attempts that leave them zero
    zero_right = {(b, a): [[0] * v[b - 1]] * v[a - 1] for a, b in left_edges}

    def draw_left(rows: int, cols: int) -> RatMat:
        # zero / rank-one / dense mix: full-rank draws force a trivial
        # annihilator for the rightward solve, so low-rank variety matters
        kind = rng.randrange(3)
        if kind == 0 or rows == 0 or cols == 0:
            return RatMat.zeros(rows, cols)
        if kind == 1:
            col = [rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(rows)]
            row = [rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(cols)]
            return RatMat._reduce([[a * b for b in row] for a in col], cols)
        return RatMat._reduce(
            [[rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(cols)] for _ in range(rows)], cols
        )

    for attempt in range(MAX_TRIES):
        left = {h: draw_left(v[h[1] - 1], v[h[0] - 1]) for h in left_edges}
        left_rows = {h: m.num for h, m in left.items()}
        chain = _LeftChain(v, left_rows)
        right_zero = attempt % 4 == 3
        hopeless = _cannot_be_stable(chain, w, right_zero)
        if hopeless and not right_zero:
            _skip_right_maps(chain, rng)
        right, d = ({}, 1) if right_zero or hopeless else _solve_right_maps(left, n, v, rng)
        i = {
            k: [[rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(w[k - 1])] for _ in range(v[k - 1])]
            for k in range(1, n)
        }
        if hopeless:
            continue
        rows = {**left_rows, **(right or zero_right)}
        if not _spans_full(v, _closure_rows(v, i, rows)):
            continue
        # QuiverRep zero-fills the maps it is not given
        B = {**left, **_maps_over(right, d, v)}
        point = QuiverRep(n, v, w, B=B, i={k: RatMat._reduce(m, w[k - 1]) for k, m in i.items()})
        object.__setattr__(point, "_stable", True)
        if in_Lambda(point):
            return point
    guided = _crystal_guided_sample(v, w, seed)
    if guided is not None:
        return guided
    raise SampleExhaustedError(
        f"no stable Lambda point for v={v.v}, w={w.w} after {MAX_TRIES} tries"
    )
