"""Verification suites tying the modules into reproducible batch checks.

Each suite returns a deterministic report dict with a boolean "pass" field;
the CLI serializes these directly.
"""

from __future__ import annotations

import random
import time
from itertools import product
from math import factorial, prod

from . import repalg
from .cartan import (
    DimVec,
    HighestWeight,
    a_of_vw,
    as_highest_weight,
    cartan_matrix,
    gl_partitions,
    hw_to_partition,
    pair_with_coroot,
    weight_of_vw,
)
from .errors import (
    MAX_RECORDED_FAILURES,
    NotInImageError,
    SampleExhaustedError,
    _record,
)
from .flag import flag_dim, s_k_exponent
from .maffei import ThetaContext, check_theta_point
from .quiver import dim_and_signs, sample_lambda_point
from .repalg import valid_dimvecs

# ---------------------------------------------------------------------------
# sign agreement / coefficient bridge grid
# ---------------------------------------------------------------------------


def _spot_draws(n_max: int, max_entry: int, seed: int, tries: int):
    """The (v, w) pairs the spot checks of suite_signs try, in order.

    First, for every n, the boundary pairs: v = (m, ..., m) with
    w = (0, ..., 0, m), whose composition is (0, m, ..., m), and v = w = 0,
    for m = max_entry.  Then tries pairs drawn uniformly, n first."""
    m = max_entry
    for n in range(2, n_max + 1):
        yield (m,) * (n - 1), (0,) * (n - 2) + (m,)
    for n in range(2, n_max + 1):
        yield (0,) * (n - 1), (0,) * (n - 1)
    rng = random.Random(seed)
    for _ in range(tries):
        n = rng.randint(2, n_max)
        v = tuple(rng.randint(0, m) for _ in range(n - 1))
        w = tuple(rng.randint(0, m) for _ in range(n - 1))
        yield v, w


def suite_signs(
    n_max: int = 6, max_entry: int = 4, seed: int = 0, spot_checks: int = 200
) -> dict:
    """Exhaustive exact check of s_k = r_k and a_k - a_{k+1} = <h_k, w - Cv>
    over the full grid n <= n_max, entries <= max_entry.

    The grid is evaluated with vectorized numpy arithmetic in the narrowest
    signed int dtype that holds every value it computes.  For each n the w
    rows are taken in chunks of (1 << 20) // (count * n) rows, each checked
    in one pass, check by check, into buffers allocated once per n, so the
    chunks, the order of the checks and the failure records do not depend on
    the buffers.  A check's mismatches are masked by the valid points only
    when it has a mismatch at all, and a record is made only after that mask,
    so it names the first valid mismatch.  With the true Cartan matrix a
    check has none, valid or not: the w terms cancel, and col - pairing =
    (T[k-1] - T[k])(v) + (Cv)_k, reading T[n-1] as v_{n-1}, is a function of
    v alone that vanishes.
    Seeded spot checks re-derive both sides through the library operations to
    pin the engine to the public API, evaluating each (v, w) once, and check
    Maffei's dimension identity dim M(v, w) = 2 dim F_a - (d^2 - sum lambda_i^2)
    for lambda the partition of w and d its size.  They start with the
    boundary pairs of every n (see _spot_draws), so from 2 * (n_max - 1) spot
    checks on each (n, k) and the entries 0 and max_entry are reached.
    """
    # The one numpy user: importing it here keeps it off every other path.
    import numpy as np

    # Entries lie in [0, max_entry], so a_k lies in [-max_entry, n * max_entry]
    # and Cv, w - Cv within 3 * max_entry; a_k - a_{k+1} is then bounded by
    # (n + 1) * max_entry in absolute value, and s_k, r_k by one more.
    bound = (n_max + 1) * max_entry + 1
    dtype = next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound
    )
    failures: list[str] = []
    grid_points = 0
    identity_checks = 0  # of each of the two identities
    for n in range(2, n_max + 1):
        grid = np.array(list(product(range(max_entry + 1), repeat=n - 1)), dtype=dtype)
        count = grid.shape[0]
        V = np.ascontiguousarray(grid.T)  # V[k] is entry k of every v
        CV = np.ascontiguousarray((grid @ np.array(cartan_matrix(n), dtype=dtype)).T)
        # a_k = (w_k + ... + w_{n-1}) + T[k - 1] for k < n, T[k - 1] = v_{k-1} - v_k
        # with v_0 = 0, so each chunk writes a row of A in one add
        T = np.empty_like(V)
        np.negative(V[0], out=T[0])
        np.subtract(V[:-1], V[1:], out=T[1:])

        def first_point(bad, Wc) -> str:
            wi, vi = divmod(int(bad.argmax()), count)
            return f"w={tuple(Wc[wi].tolist())} v={tuple(grid[vi].tolist())}"

        chunk = max(1, (1 << 20) // max(count * n, 1))
        shape = (min(chunk, count), count)
        # A[k - 1] holds a_k for every (w, v) of the chunk, contiguously;
        # a_n = v_{n-1} does not depend on w, so it is written once
        A_buf = np.empty((n,) + shape, dtype=dtype)
        A_buf[n - 1] = V[n - 2]
        pairing_buf = np.empty(shape, dtype=dtype)
        col_buf = np.empty(shape, dtype=dtype)
        valid_buf = np.empty(shape, dtype=bool)
        bad_buf = np.empty(shape, dtype=bool)
        for start in range(0, count, chunk):
            Wc = grid[start : start + chunk]
            suffix = np.cumsum(Wc[:, ::-1], axis=1, dtype=dtype)[:, ::-1]
            nc = Wc.shape[0]
            A = A_buf[:, :nc]
            pairing, col = pairing_buf[:nc], col_buf[:nc]
            valid, bad = valid_buf[:nc], bad_buf[:nc]
            for k in range(1, n):
                np.add(suffix[:, k - 1, None], T[k - 1], out=A[k - 1])
            # an or of two's-complement ints is negative iff one of them is
            np.bitwise_or(A[0], A[1], out=col)
            for k in range(2, n):
                np.bitwise_or(col, A[k], out=col)
            np.greater_equal(col, 0, out=valid)
            checks = int(np.count_nonzero(valid))
            grid_points += checks
            identity_checks += (n - 1) * checks
            for k in range(1, n):
                # bridge: a_k - a_{k+1} against <h_k, w - Cv>
                np.subtract(Wc[:, k - 1, None], CV[k - 1], out=pairing)
                np.subtract(A[k - 1], A[k], out=col)
                np.not_equal(col, pairing, out=bad)
                if bad.any() and np.logical_and(valid, bad, out=bad).any():
                    _record(failures, f"bridge n={n} k={k} {first_point(bad, Wc)}")
                # sign: s_k = a_{k+1} - a_k - 1 against r_k = -<h_k, w - Cv> - 1,
                # both compared plus one
                np.subtract(A[k], A[k - 1], out=col)
                np.negative(pairing, out=pairing)
                np.not_equal(col, pairing, out=bad)
                if bad.any() and np.logical_and(valid, bad, out=bad).any():
                    _record(failures, f"sign n={n} k={k} {first_point(bad, Wc)}")
    spots_done = 0
    for v, w in _spot_draws(n_max, max_entry, seed, 100 * spot_checks):
        if spots_done == spot_checks:
            break
        v, w = DimVec(v), HighestWeight(w)
        try:
            a = a_of_vw(v, w)
        except NotInImageError:
            continue
        spots_done += 1
        n = len(a)
        mu = weight_of_vw(v, w)
        dim_m, r = dim_and_signs(v, w)
        for k in range(1, n):
            if pair_with_coroot(mu, k) != a[k - 1] - a[k]:
                _record(failures, f"spot bridge n={n} v={v.v} w={w.w} k={k}")
            if s_k_exponent(a, k) != r[k - 1]:
                _record(failures, f"spot sign n={n} v={v.v} w={w.w} k={k}")
        d = w.level_d
        orbit_dim = d * d - sum(part * part for part in hw_to_partition(w))
        if dim_m != 2 * flag_dim(a) - orbit_dim:
            _record(failures, f"spot dim n={n} v={v.v} w={w.w}")
    return {
        "suite": "signs",
        "n_max": n_max,
        "max_entry": max_entry,
        "grid_points": grid_points,
        "sign_checks": identity_checks,
        "bridge_checks": identity_checks,
        "spot_checks": spots_done,
        "failures": failures,
        "pass": not failures,
    }


# ---------------------------------------------------------------------------
# Maffei identity suite (per sampled stable Lagrangian point)
# ---------------------------------------------------------------------------


def suite_maffei(n: int, w, samples: int, seed: int, flags: list | None = None) -> dict:
    """Sample stable Lagrangian points for one (n, w) and run every identity.

    Attempt a samples vs[a % len(vs)] with seed + a + 1, for vs the valid
    dimension vectors, until samples points are checked or 4 * samples
    attempts are made.  theta of each checked point, in order, is appended
    to flags if given."""
    w = as_highest_weight(w)
    if w.n != n:
        raise ValueError(f"w={w.w} does not match n={n}")
    ctx = ThetaContext(w)
    vs = valid_dimvecs(w)
    failures: list[str] = []
    rng = random.Random(seed)
    points = 0
    hecke_cases = 0
    exhausted = 0
    for a in range(4 * samples):
        if points == samples:
            break
        try:
            r = sample_lambda_point(vs[a % len(vs)], w, seed + a + 1)
        except SampleExhaustedError:
            exhausted += 1
            continue
        result = check_theta_point(r, ctx, rng)
        if flags is not None:
            flags.append(result["flag"])
        points += 1
        hecke_cases += result["hecke_cases"]
        for msg in result["failures"]:
            _record(failures, msg)
    return {
        "suite": "maffei",
        "n": n,
        "w": list(w.w),
        "samples_requested": samples,
        "points_checked": points,
        "hecke_cases": hecke_cases,
        "sampler_exhaustions": exhausted,
        "failures": failures,
        "pass": not failures and points >= max(samples, 1),
    }


ACCEPTANCE_MAFFEI_CONFIGS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2, (2,)),
    (2, (3,)),
    (3, (1, 1)),
    (3, (2, 1)),
    (4, (1, 1, 0)),
    (4, (0, 1, 1)),
    (5, (1, 0, 0, 1)),
    (5, (0, 1, 1, 0)),
)


def suite_maffei_acceptance(total_samples: int = 504, seed: int = 7) -> dict:
    """Criterion-scale run: >= total_samples points across n in {2..5}."""
    per = -(-total_samples // len(ACCEPTANCE_MAFFEI_CONFIGS))
    sub = []
    t0 = time.monotonic()
    for idx, (n, w) in enumerate(ACCEPTANCE_MAFFEI_CONFIGS):
        sub.append(suite_maffei(n, w, per, seed + 1000 * idx))
    elapsed = time.monotonic() - t0
    failures = [msg for s in sub for msg in s["failures"]]
    return {
        "suite": "maffei-acceptance",
        "points_checked": sum(s["points_checked"] for s in sub),
        "hecke_cases": sum(s["hecke_cases"] for s in sub),
        "elapsed_seconds": round(elapsed, 3),
        "configs": sub,
        "failures": failures[:MAX_RECORDED_FAILURES],
        "pass": all(s["pass"] for s in sub),
    }


# ---------------------------------------------------------------------------
# crystal suite
# ---------------------------------------------------------------------------


def suite_crystal(n_max: int = 4, level_max: int = 8) -> dict:
    """For every w with n <= n_max and sum k*w_k <= level_max: Stembridge
    axioms, vertex count vs the Weyl dimension, weight multiplicities vs
    Kostka numbers, and the strata factorization of both operators."""
    from . import crystal as crystal_mod

    failures: list[str] = []
    crystals = 0
    vertices = 0
    for n in range(2, n_max + 1):
        for w in product(range(level_max + 1), repeat=n - 1):
            hw = HighestWeight(w)
            if hw.level_d > level_max:
                continue
            g = crystal_mod.highest_weight_crystal(hw)
            crystals += 1
            vertices += len(g)
            tag = f"(n={n}, w={w})"
            report = crystal_mod.stembridge_verify(g)
            if not report.ok:
                _record(failures, f"{tag}: Stembridge: {report.violation}")
            lam = hw_to_partition(hw)
            expected_dim = repalg.irrep_dim(lam, n)
            if len(g) != expected_dim:
                _record(failures, f"{tag}: |B(w)| = {len(g)} != {expected_dim}")
            for a in repalg._bounded_compositions(hw.level_d, (hw.level_d,) * n):
                if crystal_mod.weight_multiplicity(g, a) != repalg.kostka(lam, a):
                    _record(failures, f"{tag}: multiplicity at a={a} != Kostka")
            for k in range(1, n):
                strata = crystal_mod.strata_maps(g, k)
                if not strata.ok:
                    _record(failures, f"{tag}: strata at k={k}: {strata.violation}")
    return {
        "suite": "crystal",
        "n_max": n_max,
        "level_max": level_max,
        "crystals": crystals,
        "vertices": vertices,
        "failures": failures,
        "pass": not failures and crystals > 0,
    }


# ---------------------------------------------------------------------------
# quotient dimensions / component counts
# ---------------------------------------------------------------------------


def margin_sum(n: int, d: int) -> int:
    """Sum of margin_matrix_count over all pairs of n-part compositions of d.

    Permuting the rows or the columns of a margin matrix is a bijection, so
    N(sigma a, tau b) = N(a, b): the sum runs over the sorted compositions
    (partitions of d padded to n parts), each weighted by its orbit size.
    """
    orbits = []
    for lam in gl_partitions(d, n):
        parts = lam.parts + (0,) * (n - len(lam.parts))
        orbits.append((parts, factorial(n) // prod(factorial(parts.count(v)) for v in set(parts))))
    return sum(
        s1 * s2 * repalg.margin_matrix_count(p1, p2) for p1, s1 in orbits for p2, s2 in orbits
    )


def rsk_roundtrip_exhaustive(n: int, d: int) -> dict:
    """Round-trip every n x n margin matrix with total d through RSK."""
    count = 0
    failures: list[str] = []
    for flat in repalg._bounded_compositions(d, (d,) * (n * n)):
        m = [list(flat[row * n : (row + 1) * n]) for row in range(n)]
        P, Q = repalg.rsk(m)
        if [len(r) for r in P] != [len(r) for r in Q]:
            _record(failures, f"shape mismatch for {m}")
        if repalg.rsk_inverse(P, Q, n, n) != m:
            _record(failures, f"roundtrip failed for {m}")
        count += 1
    return {"matrices": count, "failures": failures, "pass": not failures}


def suite_quotients(n: int, d: int, budget: int | None = None) -> dict:
    """Margin/RSK component count against the tensor-side quotient dimension;
    at (n, d) = (3, 3) also the full separation example."""
    dim_id = repalg.dim_quotient_Id(n, d, budget)
    msum = margin_sum(n, d)
    failures: list[str] = []
    if msum != dim_id:
        _record(failures, f"margin sum {msum} != dim U/I_d {dim_id}")
    report: dict = {
        "suite": "quotients",
        "n": n,
        "d": d,
        "dim_quotient_Id": dim_id,
        "margin_sum": msum,
    }
    if (n, d) == (3, 3):
        roundtrip = rsk_roundtrip_exhaustive(3, 3)
        report["rsk_roundtrip"] = roundtrip
        if not roundtrip["pass"]:
            _record(failures, "RSK roundtrip failed")
        sl3 = repalg.verify_sl3_example(budget)
        report["sl3_example"] = sl3
        if not sl3["pass"]:
            _record(failures, "sl3 separation example failed")
        report["facts"] = {
            "dim_U_mod_I3": dim_id,
            "dim_U_mod_J_(1,1)": repalg.dim_quotient_Jw((1, 1), budget),
        }
    report["failures"] = failures
    report["pass"] = not failures
    return report


def suite_all(seed: int, samples: int = 50, budget: int | None = None) -> dict:
    """Modest default sweep of every suite."""
    parts = [
        suite_signs(n_max=4, max_entry=3, seed=seed, spot_checks=50),
        suite_maffei(3, (1, 1), samples, seed),
        suite_crystal(n_max=3, level_max=6),
        suite_quotients(3, 3, budget),
    ]
    return {
        "suite": "all",
        "parts": parts,
        "failures": [msg for p in parts for msg in p["failures"]][
            :MAX_RECORDED_FAILURES
        ],
        "pass": all(p["pass"] for p in parts),
    }
