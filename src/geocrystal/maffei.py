"""The explicit map from stable Lagrangian quiver points to flags, built from
the left-then-right path set and the block maps phi_k with F_k = ker phi_k.

The length-zero path at each vertex is included in the path set; it carries
the direct i_k block, and without it the composition of the output flag would
be wrong on the v = 0 point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import as_highest_weight
from .errors import (
    DimensionMismatchError,
    IncompatibleError,
    InvalidRankError,
    LambdaPreconditionError,
)
from .flag import Flag, NilEndo, block_shift_x
from .linalg import RatMat, embed, full_space, kernel, zero_space
from .quiver import QuiverRep, in_Lambda, is_stable


@dataclass(frozen=True)
class LeftRightPath:
    """Path descending start -> bottom then ascending bottom -> end; the
    empty path at a vertex is start = bottom = end."""

    start: int
    bottom: int
    end: int

    def __post_init__(self):
        if not 1 <= self.bottom <= min(self.start, self.end):
            raise IncompatibleError(
                f"bottom {self.bottom} not in [1, min({self.start}, {self.end})]"
            )

    def edges(self) -> list[tuple[int, int]]:
        down = [(a, a - 1) for a in range(self.start, self.bottom, -1)]
        up = [(a, a + 1) for a in range(self.bottom, self.end)]
        return down + up


def enum_paths(n: int) -> list[LeftRightPath]:
    """All left-then-right paths on vertices 1..n-1, empty paths included."""
    if n < 2:
        raise InvalidRankError(f"n must be >= 2, got {n}")
    paths = []
    for start in range(1, n):
        for end in range(1, n):
            for bottom in range(1, min(start, end) + 1):
                paths.append(LeftRightPath(start, bottom, end))
    return paths


class ThetaContext:
    """Fixed identification of the sum of copies W_k^(m) with Q^d, and the
    pieces of it that theta and its checks read, built once per w.

    Blocks are laid out lexicographically by (k, m), as in block_shift_x;
    block (k, m) has size w_k.  W^{<=k} collects the copies with m <= k, so
    it is ker x^k, and its dimension is sum_l min(l, k) w_l.

    - wleq[k], 0 <= k <= n-1: the global coordinates of W^{<=k}, ascending.
    - x_down[k], 2 <= k <= n-1: x as a map W^{<=k} -> W^{<=k-1} in those
      coordinates (the flag-side image of B_{k,k-1}).
    - inclusion[k], 1 <= k <= n-2: the positions of W^{<=k} in W^{<=k+1}
      (the flag-side image of B_{k,k+1}).
    - phi_columns[k], 1 <= k <= n-1: the column of each coordinate of
      W^{<=k} in the grouped block of phi_maps, which orders the copies
      W_s^(m) by (m, s): the coordinate's rank in that order, whatever k is.
    """

    __slots__ = ("n", "w", "d", "wleq", "x_down", "inclusion", "phi_columns", "_x")

    def __init__(self, w):
        w = as_highest_weight(w)
        x, labels = block_shift_x(w)
        n, d = w.n, x.d
        wleq = tuple(tuple(c for c, (_, m) in enumerate(labels) if m <= k) for k in range(n))
        by_bottom = sorted(range(d), key=lambda c: (labels[c][1], labels[c][0], c))
        rank = {c: col for col, c in enumerate(by_bottom)}
        fields = {
            "n": n,
            "w": w,
            "d": d,
            "wleq": wleq,
            "x_down": {k: x.x.select(wleq[k - 1], wleq[k]) for k in range(2, n)},
            "inclusion": {
                k: tuple(wleq[k + 1].index(c) for c in wleq[k]) for k in range(1, n - 1)
            },
            "phi_columns": {k: tuple(rank[c] for c in wleq[k]) for k in range(1, n)},
            "_x": x,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaContext is immutable")

    def x(self) -> NilEndo:
        """The canonical block-shift nilpotent of w on this layout."""
        return self._x


def phi_maps(r: QuiverRep, ctx: ThetaContext) -> list[RatMat]:
    """The block maps [phi_1, ..., phi_{n-1}], phi_k : W^{<=k} -> V_k.

    The block of phi_k on the copy W_s^(m) (m <= min(s, k)) is B_p i_s for
    the unique path p descending s -> m then ascending m -> k; the empty path
    at k contributes i_k on W_k^(k).  Paths share their prefixes: D_m =
    [B_p i_s for s >= m], p descending s -> m, is [i_m | B_{m+1,m} D_{m+1}],
    and its ascent to k is B_{k-1,k} times its ascent to k - 1, so each point
    costs O(n^2) products.  The ascents of D_1, ..., D_k, side by side, hold
    the copies by (m, s); ctx.phi_columns puts them in W^{<=k} order.
    """
    if r.w != ctx.w:
        raise DimensionMismatchError("context built for a different w")
    if any(not m.is_zero() for m in r.j.values()):
        raise LambdaPreconditionError("phi_k requires j = 0")
    n = ctx.n
    descents = {n - 1: r.i[n - 1]}
    for m in range(n - 2, 0, -1):
        descents[m] = RatMat.block([[r.i[m], r.B[(m + 1, m)] * descents[m + 1]]])
    ascents: list[list[RatMat]] = [[] for _ in range(n)]  # ascents[k][m - 1]
    for m in range(1, n):
        a = descents[m]
        ascents[m].append(a)
        for k in range(m + 1, n):
            a = r.B[(k - 1, k)] * a
            ascents[k].append(a)
    maps = []
    for k in range(1, n):
        grouped = RatMat.block([ascents[k]])
        maps.append(grouped.select(range(grouped.rows), ctx.phi_columns[k]))
    return maps


def phi_k(r: QuiverRep, ctx: ThetaContext, k: int) -> RatMat:
    """The block map W^{<=k} -> V_k; see :func:`phi_maps`."""
    if not 1 <= k <= ctx.n - 1:
        raise InvalidRankError(f"vertex {k} out of range")
    return phi_maps(r, ctx)[k - 1]


def theta_with_phi_maps(r: QuiverRep, ctx: ThetaContext) -> tuple[Flag, list[RatMat]]:
    """theta(r) together with the maps [phi_1, ..., phi_{n-1}] whose kernels
    it is built from, for callers that check identities on both."""
    if not in_Lambda(r):
        raise LambdaPreconditionError("point is not in the Lagrangian locus")
    if not is_stable(r):
        raise LambdaPreconditionError("point is not stable")
    d, n = ctx.d, ctx.n
    phis = phi_maps(r, ctx)
    spaces = [zero_space(d)]
    for k, phi in enumerate(phis, 1):
        spaces.append(embed(kernel(phi), ctx.wleq[k], d))
    spaces.append(full_space(d))
    return Flag(spaces, n), phis


def theta(r: QuiverRep, ctx: ThetaContext) -> Flag:
    """Flag with F_k = ker phi_k, for a stable Lagrangian point.

    The kernel does not change along gauge orbits, so the output is a
    well-defined function of the orbit; its composition is a(v, w) and it lies
    in the fiber of the canonical block-shift nilpotent of w.
    """
    return theta_with_phi_maps(r, ctx)[0]


def theta_w1_special(r: QuiverRep) -> tuple[RatMat, Flag]:
    """Special form when W is concentrated at vertex 1.

    Returns x = j_1 i_1 and the flag F_l = ker(B_{l-1,l} ... B_{1,2} i_1);
    agrees with theta on Lagrangian points, where x = 0.
    """
    n = r.n
    if any(r.w[k - 1] != 0 for k in range(2, n)):
        raise IncompatibleError("W must be concentrated at vertex 1")
    d = r.w[0]
    x = r.j[1] * r.i[1]
    spaces = [zero_space(d)]
    m = r.i[1]
    for l in range(1, n):
        spaces.append(kernel(m))
        if l < n - 1:
            m = r.B[(l, l + 1)] * m
    spaces.append(full_space(d))
    return x, Flag(spaces, n)


