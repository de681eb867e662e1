import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from geocrystal import maffei
from geocrystal.cartan import HighestWeight, a_of_vw
from geocrystal.errors import IncompatibleError, InvalidRankError, LambdaPreconditionError
from geocrystal.flag import Flag, composition_of, flag_membership
from geocrystal.linalg import RatMat, canonicalize, full_space, kernel, zero_space
from geocrystal.maffei import ThetaContext, phi_maps, theta, theta_w1_special
from geocrystal.quiver import (
    QuiverRep,
    QuiverShape,
    apply_gauge,
    is_stable,
    kashiwara_reduce,
    random_gauge,
    sample_lambda_point,
)
from geocrystal.suites import ACCEPTANCE_MAFFEI_CONFIGS, check_theta_point, valid_dimvecs


# The path-by-path construction of phi_k, the oracle for phi_maps.


class LeftRightPath:
    """Path descending start -> bottom then ascending bottom -> end; the
    empty path at a vertex is start = bottom = end."""

    def __init__(self, start: int, bottom: int, end: int):
        if not 1 <= bottom <= min(start, end):
            raise IncompatibleError(f"bottom {bottom} not in [1, min({start}, {end})]")
        self.start, self.bottom, self.end = start, bottom, end

    def edges(self) -> list[tuple[int, int]]:
        down = [(a, a - 1) for a in range(self.start, self.bottom, -1)]
        up = [(a, a + 1) for a in range(self.bottom, self.end)]
        return down + up


def enum_paths(n: int) -> list[LeftRightPath]:
    """All left-then-right paths on vertices 1..n-1, empty paths included,
    ordered by (start, end, bottom)."""
    if n < 2:
        raise InvalidRankError(f"n must be >= 2, got {n}")
    paths = []
    for start in range(1, n):
        for end in range(1, n):
            for bottom in range(1, min(start, end) + 1):
                paths.append(LeftRightPath(start, bottom, end))
    return paths


def phi_k(r, ctx, k):
    """phi_k : W^{<=k} -> V_k assembled path by path: B_p i_s on the copy
    W_s^(m) of W^{<=k}, for p descending s -> m then ascending m -> k.  The
    paths ending at k come in (s, m) order, which is the order of W^{<=k}."""
    if not 1 <= k <= ctx.n - 1:
        raise InvalidRankError(f"vertex {k} out of range")
    blocks = []
    for p in enum_paths(ctx.n):
        if p.end == k:
            block = r.i[p.start]
            for edge in p.edges():
                block = r.B[edge] * block
            blocks.append(block)
    return RatMat.block([blocks])


def test_enum_paths_small():
    assert [(p.start, p.bottom, p.end) for p in enum_paths(2)] == [(1, 1, 1)]
    triples = {(p.start, p.bottom, p.end) for p in enum_paths(3)}
    assert triples == {(1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 1, 2), (2, 1, 2)}
    for p in enum_paths(5):
        assert 1 <= p.bottom <= min(p.start, p.end)


def test_path_validation():
    with pytest.raises(IncompatibleError):
        LeftRightPath(1, 2, 2)
    p = LeftRightPath(3, 1, 2)
    assert p.edges() == [(3, 2), (2, 1), (1, 2)]
    assert LeftRightPath(2, 2, 2).edges() == []


def test_theta_context_layout():
    ctx = ThetaContext((1, 1))
    assert ctx.d == 3
    assert ctx.wleq[1] == (0, 1)
    assert ctx.wleq[2] == (0, 1, 2)
    assert len(ctx.wleq[1]) == 2
    ctx2 = ThetaContext((2, 0, 1))
    assert ctx2.d == 5
    # W^{<=1} takes one copy of each vertex block
    assert len(ctx2.wleq[1]) == 2 + 0 + 1
    assert len(ctx2.wleq[2]) == 2 + 0 + 2
    assert len(ctx2.wleq[3]) == 5


@pytest.mark.parametrize(
    "w",
    sorted({w for _, w in ACCEPTANCE_MAFFEI_CONFIGS} | {(2, 0, 1), (1, 1, 1, 1), (2, 1, 1)}),
    ids=str,
)
def test_theta_context_pieces(w):
    # W^{<=k} is ker x^k, x maps it into W^{<=k-1} as x_down, and the
    # inclusion positions pick W^{<=k} out of W^{<=k+1}
    ctx = ThetaContext(w)
    x, n, d = ctx.x.x, ctx.n, ctx.d
    power = RatMat.identity(d)
    below = None
    for k in range(n):
        coords = ctx.wleq[k]
        unit = RatMat([[int(c == e) for e in coords] for c in range(d)], cols=len(coords))
        assert canonicalize(unit, d) == kernel(power)
        if k >= 2:
            assert x * unit == below * ctx.x_down[k]
        if 1 <= k <= n - 2:
            assert tuple(ctx.wleq[k + 1][p] for p in ctx.inclusion[k]) == coords
        if k >= 1:
            assert sorted(ctx.phi_columns[k]) == list(range(len(coords)))
        power, below = power * x, unit


def test_phi_k_on_worked_example(p0):
    ctx = ThetaContext((1, 1))
    assert phi_k(p0, ctx, 1) == RatMat([[1, 1]])
    assert phi_k(p0, ctx, 2) == RatMat([[0, 0, 1]])
    zero = QuiverRep(3, (0, 0), (1, 1))
    assert phi_k(zero, ctx, 1).shape == (0, 2)


def _random_j0_point(rng, n, w):
    """A point with j = 0 and random rational B and i, usually unstable."""
    v = tuple(rng.randint(0, 3) for _ in range(n - 1))

    def mat(rows, cols):
        return RatMat(
            [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(cols)]
             for _ in range(rows)],
            cols=cols,
        )

    B = {h: mat(v[h[1] - 1], v[h[0] - 1]) for h in QuiverShape(n).edges()}
    i = {k: mat(v[k - 1], w[k - 1]) for k in range(1, n) if rng.random() < 0.5}
    return QuiverRep(n, v, w, B=B, i=i)


def test_phi_maps_match_path_products():
    from geocrystal.suites import ACCEPTANCE_MAFFEI_CONFIGS

    rng = random.Random(17)
    points = []
    for n, w in ACCEPTANCE_MAFFEI_CONFIGS + ((5, (1, 1, 1, 1)), (4, (2, 1, 1))):
        vs = valid_dimvecs(w)
        for t in range(6):
            r = sample_lambda_point(vs[(7 * t) % len(vs)], w, 50 + t)
            points += [r] + [kashiwara_reduce(r, k)[0] for k in range(1, n)]
        points += [_random_j0_point(rng, n, w) for _ in range(8)]
    assert sum(not is_stable(r) for r in points) >= 30
    for r in points:
        ctx = ThetaContext(r.w)
        assert phi_maps(r, ctx) == [phi_k(r, ctx, k) for k in range(1, r.n)]


def test_phi_maps_preconditions(p0):
    ctx = ThetaContext((1, 1))
    with pytest.raises(InvalidRankError):
        phi_k(p0, ctx, 3)
    with pytest.raises(LambdaPreconditionError):
        phi_maps(QuiverRep(3, (1, 1), (1, 1), j={1: RatMat([[1]])}), ctx)


def test_theta_on_worked_example(p0):
    ctx = ThetaContext((1, 1))
    F = theta(p0, ctx)
    assert F[1] == canonicalize([(1, -1, 0)], 3)
    assert F[2] == canonicalize([(1, 0, 0), (0, 1, 0)], 3)
    assert composition_of(F).parts == (1, 1, 1)
    assert flag_membership(ctx.x, F)

    zero = QuiverRep(3, (0, 0), (1, 1))
    F0 = theta(zero, ctx)
    assert [s.dim for s in F0.spaces] == [0, 2, 3, 3]
    assert composition_of(F0).parts == (2, 1, 0)

    gauged = apply_gauge(p0, random_gauge(random.Random(0), p0.v))
    assert theta(gauged, ctx) == F


def test_theta_preconditions(p0):
    ctx = ThetaContext((1, 1))
    with pytest.raises(LambdaPreconditionError):
        theta(QuiverRep(3, (1, 1), (1, 1)), ctx)  # unstable zero maps
    with_j = QuiverRep(
        3, (1, 1), (1, 1), i={1: RatMat([[1]]), 2: RatMat([[1]])}, j={1: RatMat([[1]])}
    )
    with pytest.raises(LambdaPreconditionError):
        theta(with_j, ctx)


def test_theta_w1_special_examples():
    ident = QuiverRep(2, (2,), (2,), i={1: RatMat.identity(2)})
    x, F = theta_w1_special(ident)
    assert x.is_zero()
    assert F[1].is_zero() and F[2].is_full()

    r = QuiverRep(3, (1, 0), (2, 0), i={1: RatMat([[1, 0]])})
    x2, F2 = theta_w1_special(r)
    assert F2[1] == canonicalize([(0, 1)], 2)
    assert F2[2].is_full()

    with pytest.raises(IncompatibleError):
        theta_w1_special(QuiverRep(3, (1, 1), (1, 1)))


def test_theta_w1_special_agrees_with_theta():
    # 20 sampled single-vertex-framed points of each shape, which visit every
    # valid dimension vector of it
    cases = [(2, (2,)), (2, (3,)), (3, (2, 0)), (3, (3, 0)), (4, (2, 0, 0))]
    checked = {}
    for n, w in cases:
        ctx = ThetaContext(HighestWeight(w))
        vs = valid_dimvecs(w)
        checked[w] = []
        for t in range(20):
            r = sample_lambda_point(vs[t % len(vs)], w, seed=301 + t)
            x, special = theta_w1_special(r)
            assert x.is_zero()
            assert special == theta(r, ctx)
            checked[w].append(r.v.v)
    assert {w: sorted(set(v)) for w, v in checked.items()} == {
        w: sorted(valid_dimvecs(w)) for _, w in cases
    }


def test_flags_share_one_zero_and_one_full_space():
    # Subspace is immutable, so theta and its special form end every flag
    # with the one zero and the one full space of the ambient dimension
    w = (3, 0)
    ctx = ThetaContext(HighestWeight(w))
    flags = []
    for seed, v in enumerate(valid_dimvecs(w)[:3]):
        r = sample_lambda_point(v, w, seed)
        flags += [theta(r, ctx), theta_w1_special(r)[1]]
    assert all(F[0] is zero_space(3) and F[3] is full_space(3) for F in flags)


# A point of w = (2, 0) with v = (1, 0), whose theta and special form differ
# from those of the v = 0 point of the same w.
_V10 = QuiverRep(3, (1, 0), (2, 0), i={1: RatMat([[1, 0]])})


@pytest.mark.parametrize(
    "target, replacement, message",
    [
        ("flag_membership", lambda x, F: False, "theta output not in the fiber of x"),
        ("dominates", lambda *args: False, "composition type does not dominate type of x"),
        ("apply_gauge", lambda r, g: _V10, "theta is not gauge invariant"),
        ("theta_w1_special", lambda r: theta_w1_special(_V10), "special form disagrees with theta"),
    ],
)
def test_unnamed_checks_fail_the_point(monkeypatch, target, replacement, message):
    # each check outside THETA_INVARIANTS fails the point on its own and
    # names no invariant, except that a flag outside the fiber also fails
    # the three invariants that read flag_reduce, which it cannot run; the
    # v = 0 point has no Hecke case
    monkeypatch.setattr(maffei, target, replacement)
    zero = QuiverRep(3, (0, 0), (2, 0))
    result = check_theta_point(zero, ThetaContext((2, 0)), random.Random(0))
    assert result["failures"] == [f"(n=3, v=(0, 0), w=(2, 0)): {message}"]
    flag_side = {"flag-subspace", "epsilon-agreement", "reduction-intertwining"}
    assert result["failed_invariants"] == (flag_side if target == "flag_membership" else set())
    assert result["hecke_cases"] == 0


def _outside_fiber():
    """A flag of Q^3 outside the fiber of block_shift_x((1, 1)), which maps
    the last coordinate to the middle one: F_1 is that last line."""
    line, plane = canonicalize([(0, 0, 1)], 3), canonicalize([(1, 0, 0), (0, 0, 1)], 3)
    return Flag([zero_space(3), line, plane, full_space(3)], 3)


@pytest.mark.parametrize("v", [(1, 0), (1, 1), (2, 2)])
def test_flag_outside_the_fiber_fails_the_point(monkeypatch, v):
    # flag_reduce refuses a flag outside the fiber, so the check must report
    # the invariants that read it as failed instead of raising; only theta of
    # the checked point is replaced
    r = sample_lambda_point(v, (1, 1), 3)
    build = maffei.theta_with_phi_maps

    def corrupt(point, context):
        F, phis = build(point, context)
        return (_outside_fiber() if point is r else F), phis

    monkeypatch.setattr(maffei, "theta_with_phi_maps", corrupt)
    result = check_theta_point(r, ThetaContext((1, 1)), random.Random(0))
    assert not flag_membership(ThetaContext((1, 1)).x, result["flag"])
    assert f"(n=3, v={v}, w=(1, 1)): theta output not in the fiber of x" in result["failures"]
    assert {"flag-subspace", "epsilon-agreement", "reduction-intertwining"} <= result[
        "failed_invariants"
    ]


def test_composition_of_theta_is_decided_by_surjectivity():
    # dim F_k = dim W^{<=k} - rank phi_k, so the composition of theta's flag
    # is a(v, w) exactly when every rank phi_k is v_k, because the parts of
    # a(v, w) up to k sum to dim W^{<=k} - v_k
    checked = 0
    for n in range(2, 7):
        for w in product(range(3), repeat=n - 1):
            if HighestWeight(w).level_d > 8:
                continue
            wleq = ThetaContext(w).wleq
            for v in valid_dimvecs(w):
                a = a_of_vw(v, w)
                for k in range(1, n):
                    assert sum(a[:k]) == len(wleq[k]) - v[k - 1]
                    checked += 1
    assert checked == 55699


def test_full_point_check_on_samples(p0):
    ctx = ThetaContext((1, 1))
    rng = random.Random(0)
    result = check_theta_point(p0, ctx, rng)
    assert result["failures"] == []
    assert result["hecke_cases"] >= 1


def test_acceptance_points_unchanged():
    # Criterion 3 must keep checking the same sampled points and flags; the
    # digest covers the first 13 attempts of every acceptance config.
    from geocrystal.suites import ACCEPTANCE_MAFFEI_CONFIGS

    digest = hashlib.sha256()
    for idx, (_, w) in enumerate(ACCEPTANCE_MAFFEI_CONFIGS):
        vs = valid_dimvecs(w)
        ctx = ThetaContext(w)
        for a in range(1, 14):
            r = sample_lambda_point(vs[(a - 1) % len(vs)], w, 7 + 1000 * idx + a)
            digest.update(json.dumps(r.to_json(), sort_keys=True).encode())
            digest.update(json.dumps(theta(r, ctx).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "499d0a6154b672c8ad1c8d6be81eb7bfa3c194050a1ec8b475ca7c02950dea4b"
    )


def _guard_point():
    """A fixed point of the (5, (0, 1, 1, 0)) acceptance config, read back
    from JSON so that nothing is recorded on it yet."""
    w = (0, 1, 1, 0)
    r = sample_lambda_point((1, 2, 2, 1), w, seed=7)
    return QuiverRep.from_json(r.to_json()), ThetaContext(w)


def test_check_theta_point_elimination_count(monkeypatch):
    # A deterministic guard on the exact work of one check: every canonical
    # subspace comes out of one elimination and each meet F_{k+1} ∩
    # x^-1(F_{k-1}) is found once, so a re-reduction that creeps back raises
    # the count without any timing noise.  A change that removes eliminations
    # lowers BOUND to the new count; one that must add some raises it and
    # says why.
    from geocrystal import linalg

    BOUND = 72
    r, ctx = _guard_point()
    calls = []
    echelon = linalg._echelon

    def counted(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    result = check_theta_point(r, ctx, random.Random(0))
    assert result["failures"] == [] and result["hecke_cases"] == 2
    assert len(calls) <= BOUND


def test_check_theta_point_membership_count(monkeypatch):
    # A deterministic guard: the fiber of theta's flag is proved once, n
    # containments, and read once by the check and once by each flag_reduce.
    from geocrystal import flag

    r, ctx = _guard_point()
    reads, proofs = [], []
    membership, contains = flag.flag_membership, flag.contains_image

    def read(x, F):
        reads.append(F)
        return membership(x, F)

    def prove(*args):
        proofs.append(args)
        return contains(*args)

    monkeypatch.setattr(flag, "flag_membership", read)
    monkeypatch.setattr(maffei, "flag_membership", read)
    monkeypatch.setattr(flag, "contains_image", prove)
    assert check_theta_point(r, ctx, random.Random(0))["failures"] == []
    assert (len(reads), len(proofs)) == (5, 5) == (ctx.n, ctx.n)


def test_corrupted_recorded_meet_fails_flag_subspace(monkeypatch):
    # the flag side of the flag-subspace check is F_1 of the flag that
    # flag_reduce returns, the meet F_2 ∩ x^-1(F_0), so a wrong meet there
    # must be caught by the quiver side; the wrong meet still lies between
    # F_0 and F_2, so it makes a flag
    r, ctx = _guard_point()
    assert check_theta_point(r, ctx, random.Random(0))["failed_invariants"] == set()
    reduce = maffei.flag_reduce
    corrupted = []

    def corrupt(F, x, k):
        F_red, c = reduce(F, x, k)
        if k == 1 and not corrupted:
            wrong = F[2] if F_red[1] == F[1] else F[1]
            assert wrong != F_red[1]
            F_red = Flag([F_red[0], wrong, *F_red.spaces[2:]], F.n)
            corrupted.append(F_red)
        return F_red, c

    monkeypatch.setattr(maffei, "flag_reduce", corrupt)
    r, ctx = _guard_point()
    result = check_theta_point(r, ctx, random.Random(0))
    assert corrupted and "flag-subspace" in result["failed_invariants"]
    assert any("flag-subspace fails at k=1" in f for f in result["failures"])
