"""Decomposition of the tensor powers (Q^n)^{tensor d} of the natural sl_n
module into irreducibles, the two quotient dimensions, Kostka and RSK
combinatorics, and the closing rank-3 separation example.

By Schur-Weyl duality the multiplicity of L(lambda) in (Q^n)^{tensor d} is
the number of standard tableaux of shape lambda, the Kostka number
K(lambda, 1^d), for every partition lambda of d with at most n rows.  The
checksum sum(mult * dim) = n^d, the RSK identity sum f^lambda dim L(lambda)
= n^d, is checked on every decomposition.  The joint kernels of the raising
operators on the dominant weight spaces give the same multiplicities by
linear algebra; that route is the oracle of the tests, not a second path.
The weights of L(omega_w), which index dim U/J_w and the non-empty M(v, w),
are found once, as the compositions a of level(w) with K(lambda(w), a) > 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .cartan import (
    HighestWeight,
    as_composition,
    as_highest_weight,
    as_partition,
    gl_partitions,
    hw_to_partition,
    irrep_dim,
    is_partition_of,
    partition_to_hw,
    reduce_mod_full_columns,
    v_of_aw,
    weight_of_vw,
)
from .errors import (
    BudgetExceededError,
    GeoCrystalError,
    IncompatibleError,
    InvalidRankError,
    SizeMismatchError,
    size_budget,
)
from .values import Value


def _check_budget(n: int, d: int, budget: int | None) -> None:
    if n < 2:
        raise InvalidRankError(f"n must be >= 2, got {n}")
    if d < 0:
        raise IncompatibleError("d must be >= 0")
    if n**d > size_budget(budget):
        raise BudgetExceededError(
            f"n^d = {n**d} exceeds the size budget {size_budget(budget)}"
        )


class Constituent(Value):
    """One irreducible summand of a tensor power and its multiplicity."""

    __slots__ = (
        "w", "gl_partition", "sl_partition", "multiplicity", "dimension", "strict_partition_of_d"
    )

    def to_json(self) -> dict:
        return {
            "w": self.w.to_json(),
            "gl_partition": self.gl_partition.to_json(),
            "sl_partition": self.sl_partition.to_json(),
            "multiplicity": self.multiplicity,
            "dimension": self.dimension,
            "strict_partition_of_d": self.strict_partition_of_d,
        }


class Decomposition(Value):
    """The constituents of (Q^n)^{tensor d}."""

    __slots__ = ("n", "d", "constituents")

    @property
    def total(self) -> int:
        return sum(c.multiplicity * c.dimension for c in self.constituents)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "total": self.total,
            "constituents": [c.to_json() for c in self.constituents],
        }


def decompose_tensor(n: int, d: int, budget: int | None = None) -> Decomposition:
    """Decomposition of (Q^n)^{tensor d} into sl_n irreducibles.

    One constituent per partition lambda of d with at most n rows, in
    decreasing lex order, of multiplicity K(lambda, 1^d); it records both the
    GL partition and its sl_n reduction mod full columns, plus the strict
    partition-of-d flag.  A total other than n^d raises IncompatibleError.
    """
    _check_budget(n, d, budget)
    constituents = []
    for gl_part in gl_partitions(d, n):
        sl_part = reduce_mod_full_columns(gl_part, n)
        w = partition_to_hw(sl_part, n)
        constituents.append(
            Constituent(
                w=w,
                gl_partition=gl_part,
                sl_partition=sl_part,
                multiplicity=kostka(gl_part, (1,) * d),
                dimension=irrep_dim(gl_part, n),
                strict_partition_of_d=is_partition_of(w, d),
            )
        )
    dec = Decomposition(n, d, tuple(constituents))
    if dec.total != n**d:
        raise IncompatibleError(
            f"decomposition checksum {dec.total} != {n**d}"
        )
    return dec


def dim_quotient_Id(n: int, d: int, budget: int | None = None) -> int:
    """Sum of squared dimensions over the distinct sl_n constituents of the
    d-th tensor power of the natural module."""
    dec = decompose_tensor(n, d, budget)
    seen: dict[tuple[int, ...], int] = {}
    for c in dec.constituents:
        seen[c.sl_partition.parts] = c.dimension
    return sum(dim * dim for dim in seen.values())


def valid_dimvecs(w) -> list[tuple[int, ...]]:
    """The v with M(v, w) non-empty, ascending: omega_w - alpha_v is a weight
    of L(omega_w) exactly when its content a = a(v, w) has K(lambda(w), a) > 0,
    so v = v_of_aw(a, w) over the compositions a of level(w) into n parts."""
    w = as_highest_weight(w)
    lam, d = hw_to_partition(w), w.level_d
    compositions = _bounded_compositions(d, (d,) * w.n)
    return sorted(v_of_aw(a, w).v for a in compositions if kostka(lam, a) > 0)


def dominant_weights_of(w) -> list[HighestWeight]:
    """The dominant omega_w - alpha_v over valid_dimvecs(w), decreasing.

    These are all the dominant mu <= omega_w, so no membership flag is needed:
    the content a = a(v, w) of such a mu has a_k - a_{k+1} = <h_k, mu> >= 0 and
    a_n = v_{n-1} >= 0, so it is a partition; v >= 0 makes lambda(w) dominate
    it, so K(lambda(w), a) > 0.
    """
    w = as_highest_weight(w)
    mus = (weight_of_vw(v, w).omega for v in valid_dimvecs(w))
    dominant = [HighestWeight(mu) for mu in mus if min(mu) >= 0]
    return sorted(dominant, key=lambda mu: mu.w, reverse=True)


def dim_quotient_Jw(w, budget: int | None = None) -> int:
    """Sum of squared dimensions over the dominant weights of L(omega_w); the
    C(d + n - 1, n - 1) compositions of d = level(w) it visits are budgeted."""
    w, budget = as_highest_weight(w), size_budget(budget)
    visited = comb(w.level_d + w.n - 1, w.n - 1)
    if visited > budget:
        raise BudgetExceededError(f"{visited} compositions exceed the size budget {budget}")
    return sum(irrep_dim(hw_to_partition(mu), w.n) ** 2 for mu in dominant_weights_of(w))


def _strip_removals(shape: tuple[int, ...], size: int, rows: int) -> list[tuple[int, ...]]:
    """The mu with at most rows rows and shape/mu a horizontal strip of size
    cells: shape_{i+1} <= mu_i <= shape_i.  Rows below i can lose at most
    shape_{i+1} cells, and a row past rows all of it, so no partial mu dies."""
    length = len(shape)
    if length > rows + 1:
        return []
    forced = shape[rows] if length == rows + 1 else 0
    partial = [((), size)]
    for i, part in enumerate(shape):
        low = shape[i + 1] if i + 1 < length else 0
        high, rest = (part, forced) if i < rows else (0, 0)
        partial = [
            (mu + (m,) if m else mu, left - part + m)
            for mu, left in partial
            for m in range(max(low, part - left + rest), min(high, part - left + low) + 1)
        ]
    return [mu for mu, _ in partial]


def kostka(lam, a) -> int:
    """Number of semistandard tableaux of shape lam and content a.

    Gelfand-Tsetlin recursion: the cells holding the largest letter m form a
    horizontal strip lam/mu of a_m cells, and mu is a tableau in the letters
    below m.  Letters are peeled from the largest down to the last three,
    with the shapes of each level kept as a {shape: count} dict.

    K(lam, a) is symmetric in a (the Bender-Knuth involutions swap the counts
    of two adjacent letters), and a letter of count 0 adds nothing, so the
    zeros are dropped and a is sorted ascending first: the largest counts are
    peeled first, as the widest strips, which leaves the fewest shapes below.
    A content of fewer than three letters is padded with zeros in front.

    The last three letters a_1 <= a_2 <= a_3 are counted in closed form.  A
    shape of more than 3 rows adds 0.  For s = (s_1, s_2, s_3), peeling a_3
    as a horizontal strip leaves mu with mu_1 + mu_2 = |s| - a_3 = a_1 + a_2,
    s_2 <= mu_1 <= s_1 and s_3 <= mu_2 <= s_2; two letters fill mu one way
    if mu_2 <= a_1, and no other way.  So s adds its count times the number
    of mu_2 with max(s_3, a_1 + a_2 - s_1) <= mu_2 <= min(s_2, a_1, a_1 + a_2 - s_2),
    and no strip of that level is enumerated.
    """
    lam = as_partition(lam)
    a = tuple(int(c) for c in a)
    if any(c < 0 for c in a):
        return 0
    if lam.size != sum(a):
        raise SizeMismatchError(f"|{lam.parts}| != sum{a}")
    a = sorted(c for c in a if c)
    a = [0] * (3 - len(a)) + a
    level = {lam.parts: 1}
    for m in range(len(a), 3, -1):
        below: dict[tuple[int, ...], int] = {}
        for shape, count in level.items():
            for mu in _strip_removals(shape, a[m - 1], m - 1):
                below[mu] = below.get(mu, 0) + count
        level = below
    a1, a2 = a[0], a[1]
    total = 0
    for shape, count in level.items():
        if len(shape) > 3:
            continue
        s1, s2, s3 = shape + (0,) * (3 - len(shape))
        lo = max(s3, a1 + a2 - s1)
        hi = min(s2, a1, a1 + a2 - s2)
        if hi >= lo:
            total += count * (hi - lo + 1)
    return total


def _bounded_compositions(total: int, bounds: tuple[int, ...]):
    """Compositions of total with part i <= bounds[i]."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _margin_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    # cache shared across all margin pairs: states are (row-sum suffix, state)
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    total = 0
    for row in _bounded_compositions(rows[0], cols):
        total += _margin_count(rows[1:], tuple(c - t for c, t in zip(cols, row)))
    return total


def margin_matrix_count(d1, d2) -> int:
    """Number of non-negative integer matrices with row sums d1, col sums d2."""
    d1 = as_composition(d1)
    d2 = as_composition(d2)
    if d1.d != d2.d:
        raise SizeMismatchError(f"totals differ: {d1.d} != {d2.d}")
    if len(d2) == 0:
        return 1 if d1.d == 0 else 0
    return _margin_count(tuple(d1.parts), tuple(d2.parts))


Tableau = list[list[int]]


def _row_insert(tableau: Tableau, recording: Tableau, x: int, label: int) -> None:
    row = 0
    while True:
        if row == len(tableau):
            tableau.append([x])
            recording.append([label])
            return
        current = tableau[row]
        bump_at = None
        for idx, val in enumerate(current):
            if val > x:
                bump_at = idx
                break
        if bump_at is None:
            current.append(x)
            recording[row].append(label)
            return
        current[bump_at], x = x, current[bump_at]
        row += 1


def rsk(matrix) -> tuple[Tableau, Tableau]:
    """RSK of a non-negative integer matrix: (insertion P, recording Q).

    The biword takes pairs (i, j) with multiplicity m[i][j] in lexicographic
    order; P receives the column labels (content = column sums) and Q the row
    labels (content = row sums).
    """
    P: Tableau = []
    Q: Tableau = []
    for i, row in enumerate(matrix, start=1):
        for j, mult in enumerate(row, start=1):
            if mult < 0:
                raise IncompatibleError("negative matrix entry")
            for _ in range(mult):
                _row_insert(P, Q, j, i)
    return P, Q


def rsk_inverse(P: Tableau, Q: Tableau, nrows: int, ncols: int) -> list[list[int]]:
    """Invert RSK back to the margin matrix of shape nrows x ncols.

    Repeatedly removes the rightmost corner cell carrying the maximal
    recording label (the last-inserted cell) and reverse-bumps its value up
    through P: at each row above, the rightmost entry strictly below the
    carried value is swapped out.
    """
    P = [list(r) for r in P]
    Q = [list(r) for r in Q]
    if [len(r) for r in P] != [len(r) for r in Q]:
        raise SizeMismatchError("P and Q have different shapes")
    matrix = [[0] * ncols for _ in range(nrows)]
    while P:
        label = max(r[-1] for r in Q)
        best = None
        for r, qrow in enumerate(Q):
            if qrow[-1] == label and (best is None or len(qrow) > len(Q[best])):
                best = r
        r = best
        x = P[r].pop()
        Q[r].pop()
        if not P[r]:
            P.pop(r)
            Q.pop(r)
        for above in range(r - 1, -1, -1):
            row = P[above]
            swap_at = None
            for idx in range(len(row) - 1, -1, -1):
                if row[idx] < x:
                    swap_at = idx
                    break
            row[swap_at], x = x, row[swap_at]
        if not 1 <= label <= nrows or not 1 <= x <= ncols:
            raise SizeMismatchError("tableau entry outside the requested shape")
        matrix[label - 1][x - 1] += 1
    return matrix


class Fact(Value):
    """A named computed value and the value the paper expects."""

    __slots__ = ("name", "value", "expected")

    @property
    def ok(self) -> bool:
        return self.value == self.expected

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "expected": self.expected,
            "ok": self.ok,
        }


def verify_sl3_example(budget: int | None = None) -> dict:
    """The rank-3 separation example: both readings of "partition of 3", the
    vanishing multiplicity, and the two different quotient dimensions.

    Each fact is evaluated in isolation so a failing computation yields a red
    report naming that fact instead of aborting the run.
    """
    w_top = HighestWeight((3, 0))
    w_adj = HighestWeight((1, 1))

    def guarded(name, thunk, expected):
        try:
            return Fact(name, thunk(), expected)
        except GeoCrystalError as exc:
            return Fact(name, f"error: {exc}", expected)

    facts = [
        guarded("is_partition_of((3,0), 3)", lambda: is_partition_of(w_top, 3), True),
        guarded(
            "multiplicity of 3*omega_1 in L(omega_1+omega_2)",
            lambda: kostka(hw_to_partition(w_adj), (3, 0, 0)),
            0,
        ),
        guarded("dim U/I_3", lambda: dim_quotient_Id(3, 3, budget), 165),
        guarded("dim U/J_(1,1)", lambda: dim_quotient_Jw(w_adj, budget), 65),
    ]
    facts.append(Fact("quotients differ", facts[2].value != facts[3].value, True))
    return {
        "schema_version": "1",
        "facts": [f.to_json() for f in facts],
        "pass": all(f.ok for f in facts),
    }
