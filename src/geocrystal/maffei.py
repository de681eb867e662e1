"""The explicit map from stable Lagrangian quiver points to flags, built from
the block maps phi_k with F_k = ker phi_k, and the per-point check of the
identities it satisfies.

The length-zero path at each vertex contributes the direct i_k block to
phi_k; without it the composition of the output flag would be wrong on the
v = 0 point.
"""

from __future__ import annotations

import random
from math import lcm
from operator import mul

from .cartan import (
    a_of_vw,
    as_highest_weight,
    comp_shift,
    dominates,
    hw_to_partition,
    jordan_type,
)
from .errors import (
    DimensionMismatchError,
    IncompatibleError,
    LambdaPreconditionError,
    _record,
)
from .flag import (
    Flag,
    block_shift_x,
    composition_of,
    flag_membership,
    flag_reduce,
    is_hecke_pair,
)
from .linalg import (
    RatMat,
    _transpose,
    canonicalize,
    embed,
    full_space,
    kernel,
    preimage,
    rank,
    zero_space,
)
from .quiver import (
    QuiverRep,
    apply_gauge,
    in_Lambda,
    is_stable,
    joint_outgoing_kernel,
    kashiwara_reduce,
    quotient_by_invariant_subspace,
    random_gauge,
)
from .values import Frozen

class ThetaContext(Frozen):
    """Fixed identification of the sum of copies W_k^(m) with Q^d, and the
    pieces of it that theta and its checks read, built once per w.

    Blocks are laid out lexicographically by (k, m), as in block_shift_x;
    block (k, m) has size w_k.  W^{<=k} collects the copies with m <= k, so
    it is ker x^k, and its dimension is sum_l min(l, k) w_l.

    - x: the canonical block-shift nilpotent of w on this layout.
    - wleq[k], 0 <= k <= n-1: the global coordinates of W^{<=k}, ascending.
    - x_down[k], 2 <= k <= n-1: x as a map W^{<=k} -> W^{<=k-1} in those
      coordinates (the flag-side image of B_{k,k-1}).
    - inclusion[k], 1 <= k <= n-2: the positions of W^{<=k} in W^{<=k+1}
      (the flag-side image of B_{k,k+1}).
    - phi_columns[k], 1 <= k <= n-1: the column of each coordinate of
      W^{<=k} in the grouped block of phi_maps, which orders the copies
      W_s^(m) by (m, s): the coordinate's rank in that order, whatever k is.
    """

    __slots__ = ("n", "w", "d", "wleq", "x_down", "inclusion", "phi_columns", "x")

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
            "x": x,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def phi_maps(r: QuiverRep, ctx: ThetaContext) -> list[RatMat]:
    """The block maps [phi_1, ..., phi_{n-1}], phi_k : W^{<=k} -> V_k.

    The block of phi_k on the copy W_s^(m) (m <= min(s, k)) is B_p i_s for
    the unique path p descending s -> m then ascending m -> k; the empty path
    at k contributes i_k on W_k^(k).  Paths share their prefixes: D_m =
    [B_p i_s for s >= m], p descending s -> m, is [i_m | B_{m+1,m} D_{m+1}],
    and its ascent to k is B_{k-1,k} times its ascent to k - 1, so each point
    costs O(n^2) products.  The ascents of D_1, ..., D_k, side by side, hold
    the copies by (m, s); ctx.phi_columns puts them in W^{<=k} order.  Every
    block is integer columns over a denominator, and phi_k is reduced once.
    """
    if r.w != ctx.w:
        raise DimensionMismatchError("context built for a different w")
    if any(not m.is_zero() for m in r.j.values()):
        raise LambdaPreconditionError("phi_k requires j = 0")
    n, i = ctx.n, r.i
    columns = {m: (_transpose(i[m].num, r.w[m - 1]), i[m].den) for m in range(1, n)}
    descents = {n - 1: columns[n - 1]}
    for m in range(n - 2, 0, -1):
        descents[m] = _side_by_side([columns[m], _times(r.B[(m + 1, m)], *descents[m + 1])])
    ascents: list[list[tuple]] = [[] for _ in range(n)]  # ascents[k][m - 1]
    for m in range(1, n):
        a = descents[m]
        ascents[m].append(a)
        for k in range(m + 1, n):
            a = _times(r.B[(k - 1, k)], *a)
            ascents[k].append(a)
    maps = []
    for k in range(1, n):
        grouped, den = _side_by_side(ascents[k])
        order = ctx.phi_columns[k]
        rows = _transpose([grouped[c] for c in order], r.v[k - 1])
        maps.append(RatMat._reduce(rows, len(order), den))
    return maps


def _times(m: RatMat, cols: list, den: int) -> tuple[list, int]:
    """m times the map of the given integer columns over den."""
    return [[sum(map(mul, row, col)) for row in m.num] for col in cols], m.den * den


def _side_by_side(blocks: list[tuple[list, int]]) -> tuple[list, int]:
    """The blocks' columns side by side, over the lcm of their denominators."""
    den = lcm(*(d for _, d in blocks))
    cols = [col if d == den else [den // d * a for a in col] for part, d in blocks for col in part]
    return cols, den


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


# The per-point invariants a theta run reports by name; the other checks of
# check_theta_point (fiber, dominance, gauge, special form) fail the point
# without naming one of these.
THETA_INVARIANTS = (
    "comm1",
    "comm2",
    "flag-subspace",
    "surjectivity",
    "epsilon-agreement",
    "reduction-intertwining",
    "hecke-compatibility",
)


def check_theta_point(r: QuiverRep, ctx: ThetaContext, rng: random.Random) -> dict:
    """All per-point identities; returns counters, failure strings, the
    names (from THETA_INVARIANTS) of the invariants that failed and the flag
    theta(r).

    Each piece of exact work is done once per point: the phi maps are those
    theta's flag F was built from, epsilon_k of the point is the dimension of
    the joint kernel that the flag-subspace check and kashiwara_reduce use,
    the flag side of that check is F_k of flag_reduce's flag, the meet
    F_{k+1} ∩ x^{-1}(F_{k-1}) whatever c is (its quiver side comes from phi_k
    and the joint kernel, so a wrong meet fails it), epsilon_k of F is the
    multiplicity flag_reduce returns, and theta of a point that
    kashiwara_reduce leaves unchanged (c = 0) is F itself.  At epsilon_k = 1
    the Hecke line is that joint kernel, so the Hecke quotient is
    kashiwara_reduce's point, whose theta the intertwining check built.  The
    surjectivity checks decide the composition of F: dim F_k is
    dim W^{<=k} - rank phi_k, and a_1 + ... + a_k is dim W^{<=k} - v_k.
    flag_reduce refuses a flag outside the fiber of x: that fails its three
    invariants."""
    failures: list[str] = []
    failed: set[str] = set()
    n = ctx.n
    d = ctx.d
    tag = f"(n={n}, v={r.v.v}, w={r.w.w})"

    def fail(invariant: str | None, msg: str) -> None:
        if invariant is not None:
            failed.add(invariant)
        _record(failures, f"{tag}: {msg}")

    x = ctx.x
    F, phi_list = theta_with_phi_maps(r, ctx)
    a = a_of_vw(r.v, r.w)
    hecke_cases = 0
    in_fiber = flag_membership(x, F)
    if not in_fiber:
        fail(None, "theta output not in the fiber of x")
        failed.update(("flag-subspace", "epsilon-agreement", "reduction-intertwining"))
    if d > 0 and not dominates(jordan_type(a), hw_to_partition(r.w).conjugate()):
        fail(None, "composition type does not dominate type of x")
    phis = dict(enumerate(phi_list, 1))
    for k in range(1, n):
        if rank(phis[k]) != r.v[k - 1]:
            fail("surjectivity", f"rank phi_{k} != v_{k}")
        if k >= 2:
            lhs = r.B[(k, k - 1)] * phis[k]
            rhs = phis[k - 1] * ctx.x_down[k]
            if lhs != rhs:
                fail("comm1", f"comm1 fails at k={k}")
        if k <= n - 2:
            lhs = r.B[(k, k + 1)] * phis[k]
            restricted = phis[k + 1].select(range(phis[k + 1].rows), ctx.inclusion[k])
            if lhs != restricted:
                fail("comm2", f"comm2 fails at k={k}")
        kernel_k = joint_outgoing_kernel(r, k)
        eps_pt = kernel_k.dim
        reduced, c_pt = kashiwara_reduce(r, k)
        F_reduced = F if reduced is r else theta(reduced, ctx)
        if in_fiber:
            F_red, c_fl = flag_reduce(F, x, k)
            lhs_sub = embed(preimage(phis[k], kernel_k), ctx.wleq[k], d)
            if lhs_sub != F_red[k]:
                fail("flag-subspace", f"flag-subspace fails at k={k}")
            if eps_pt != c_fl:
                fail("epsilon-agreement", f"epsilon point/flag disagree at k={k}")
            if c_pt != c_fl:
                fail("reduction-intertwining", f"reduction multiplicities differ at k={k}")
            if F_reduced != F_red:
                fail("reduction-intertwining", f"reduction intertwining fails at k={k}")
        if eps_pt >= 1:
            if eps_pt == 1:
                F_q = F_reduced
            else:
                vk = r.v[k - 1]
                line = canonicalize(kernel_k.basis.select(range(vk), (0,)), vk)
                F_q = theta(quotient_by_invariant_subspace(r, k, line), ctx)
            hecke_cases += 1
            if not is_hecke_pair(F_q, F, k):
                fail("hecke-compatibility", f"Hecke pair fails at k={k}")
            if composition_of(F_q) != comp_shift(a, k, +1):
                fail("hecke-compatibility", f"Hecke composition is not a_k^+ at k={k}")
    g = random_gauge(rng, r.v)
    if theta(apply_gauge(r, g), ctx) != F:
        fail(None, "theta is not gauge invariant")
    # theta_with_phi_maps refused j != 0, so the special form's x = j_1 i_1 is 0
    if all(r.w[t] == 0 for t in range(1, n - 1)) and theta_w1_special(r)[1] != F:
        fail(None, "special form disagrees with theta")
    return {
        "failures": failures,
        "failed_invariants": failed,
        "hecke_cases": hecke_cases,
        "flag": F,
    }
