"""The sign-agreement suite in its plainest form, the oracle for
``suites.suite_signs``.

Every chunk of the grid is passed check by check, each check always masked
by the valid points and then tested for a set bit, and every spot point is
evaluated once per k through ``dim_and_sign``, the per-k quiver-side
formula.  The Cartan matrix is a parameter, so a test can run this and the
package suite on the same perturbed matrix; nothing in the package imports
this module.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from geocrystal.cartan import (
    a_of_vw,
    alpha_weight,
    as_dimvec,
    as_highest_weight,
    cartan_matrix,
    hw_to_partition,
    pair_with_coroot,
    weight_of_vw,
)
from geocrystal.errors import NotInImageError, _record
from geocrystal.flag import flag_dim, s_k_exponent
from geocrystal.suites import _spot_draws


def dim_and_sign(v, w, k: int) -> tuple[int, int]:
    """dim M(v,w) = v.(2w - Cv) and r_k(v,w) = -e^k.(w - Cv) - 1."""
    v, w = as_dimvec(v), as_highest_weight(w)
    assert v.n == w.n and 1 <= k <= v.n - 1
    Cv = alpha_weight(v).omega
    dimM = sum(v[idx] * (2 * w[idx] - Cv[idx]) for idx in range(len(v)))
    r_k = -(w[k - 1] - Cv[k - 1]) - 1
    return dimM, r_k


def suite_signs(n_max, max_entry, seed, spot_checks, cartan=cartan_matrix) -> dict:
    bound = (n_max + 1) * max_entry + 1
    dtype = next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound
    )
    failures: list[str] = []
    sign_checks = 0
    bridge_checks = 0
    grid_points = 0
    for n in range(2, n_max + 1):
        grid = np.array(list(product(range(max_entry + 1), repeat=n - 1)), dtype=dtype)
        count = grid.shape[0]
        V = np.ascontiguousarray(grid.T)
        CV = np.ascontiguousarray((grid @ np.array(cartan(n), dtype=dtype)).T)

        def first_point(bad, Wc) -> str:
            wi, vi = divmod(int(bad.argmax()), count)
            return f"w={tuple(Wc[wi].tolist())} v={tuple(grid[vi].tolist())}"

        chunk = max(1, (1 << 20) // max(count * n, 1))
        shape = (min(chunk, count), count)
        A_buf = np.empty((n,) + shape, dtype=dtype)
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
            np.subtract(suffix[:, 0, None], V[0], out=A[0])
            for k in range(2, n):
                np.subtract(suffix[:, k - 1, None], V[k - 1], out=A[k - 1])
                np.add(A[k - 1], V[k - 2], out=A[k - 1])
            A[n - 1] = V[n - 2]
            np.bitwise_or(A[0], A[1], out=col)
            for k in range(2, n):
                np.bitwise_or(col, A[k], out=col)
            np.greater_equal(col, 0, out=valid)
            checks = int(np.count_nonzero(valid))
            grid_points += checks
            for k in range(1, n):
                np.subtract(Wc[:, k - 1, None], CV[k - 1], out=pairing)
                np.subtract(A[k - 1], A[k], out=col)
                np.not_equal(col, pairing, out=bad)
                np.logical_and(valid, bad, out=bad)
                bridge_checks += checks
                if bad.any():
                    _record(failures, f"bridge n={n} k={k} {first_point(bad, Wc)}")
                np.subtract(A[k], A[k - 1], out=col)
                np.negative(pairing, out=pairing)
                np.not_equal(col, pairing, out=bad)
                np.logical_and(valid, bad, out=bad)
                sign_checks += checks
                if bad.any():
                    _record(failures, f"sign n={n} k={k} {first_point(bad, Wc)}")
    spots_done = 0
    for v, w in _spot_draws(n_max, max_entry, seed, 100 * spot_checks):
        if spots_done == spot_checks:
            break
        try:
            a = a_of_vw(v, w)
        except NotInImageError:
            continue
        spots_done += 1
        n = len(a)
        mu = weight_of_vw(v, w)
        for k in range(1, n):
            if pair_with_coroot(mu, k) != a[k - 1] - a[k]:
                _record(failures, f"spot bridge n={n} v={v} w={w} k={k}")
            dim_m, r_k = dim_and_sign(v, w, k)
            if s_k_exponent(a, k) != r_k:
                _record(failures, f"spot sign n={n} v={v} w={w} k={k}")
        lam = hw_to_partition(w)
        d = sum(lam)
        if dim_m != 2 * flag_dim(a) - (d * d - sum(p * p for p in lam)):
            _record(failures, f"spot dim n={n} v={v} w={w}")
    return {
        "suite": "signs",
        "n_max": n_max,
        "max_entry": max_entry,
        "grid_points": grid_points,
        "sign_checks": sign_checks,
        "bridge_checks": bridge_checks,
        "spot_checks": spots_done,
        "failures": failures,
        "pass": not failures,
    }
