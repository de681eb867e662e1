"""Jordan data of nilpotent matrices, for building and checking flag-side inputs.

``jordan_nilpotent`` builds the shift matrix of a Jordan type and
``nilpotent_jordan_type`` reads the Jordan type back from exact ranks of
powers.  The tests use them to make nilpotents and to check that the
block-shift nilpotent of w has the Jordan type the package relies on;
nothing in the package imports them.
"""

from __future__ import annotations

from geocrystal.cartan import Partition, as_partition
from geocrystal.errors import DimensionMismatchError, IncompatibleError, SizeMismatchError
from geocrystal.flag import NilEndo
from geocrystal.linalg import RatMat, power_ranks


def jordan_nilpotent(lam, d: int, n: int | None = None) -> NilEndo:
    """Block-diagonal shift matrix, one Jordan block per part in lam order.

    n defaults to the largest block size (the nilpotency degree); pass the
    ambient flag length explicitly when it is larger.
    """
    lam = as_partition(lam)
    if lam.size != d:
        raise SizeMismatchError(f"|{lam.parts}| = {lam.size} != d = {d}")
    rows = [[0] * d for _ in range(d)]
    offset = 0
    for m in lam.parts:
        for t in range(m - 1):
            rows[offset + t][offset + t + 1] = 1
        offset += m
    if n is None:
        n = max(lam.parts[0] if lam.parts else 0, 2)
    return NilEndo(RatMat(rows, cols=d), n)


def nilpotent_jordan_type(x: RatMat) -> Partition:
    """Jordan type from exact ranks of powers: lambda'_s = rk x^{s-1} - rk x^s."""
    if x.rows != x.cols:
        raise DimensionMismatchError("Jordan type of non-square matrix")
    ranks = power_ranks(x)
    if ranks[-1]:
        raise IncompatibleError("matrix is not nilpotent")
    conj = [ranks[s - 1] - ranks[s] for s in range(1, len(ranks))]
    parts: list[int] = []
    for size, count in enumerate(
        (conj[i] - (conj[i + 1] if i + 1 < len(conj) else 0) for i in range(len(conj))),
        start=1,
    ):
        parts.extend([size] * count)
    parts.reverse()
    return Partition(tuple(parts))
