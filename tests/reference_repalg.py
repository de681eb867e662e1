"""Reference implementations of six ``geocrystal`` combinatorics kernels.

These are the enumerating versions the package used before it counted by
recursion and symmetry: Kostka numbers by filling the diagram cell by cell,
the margin-matrix sum over every pair of compositions, the weight blocks of
(Q^n)^{tensor d} from all n^d words, the tensor-power multiplicities as
joint kernels of the raising operators, by rank modulo a prime with an exact
fallback, and the weights of L(omega_w) from a scan of the box
[0, d]^{n-1} of dimension vectors, decided by Kostka numbers or by the
vertex counts of the crystal B(omega_w).  They are kept only as the oracles
of the differential tests in ``test_repalg.py``; nothing in the package
imports them.
"""

from __future__ import annotations

from itertools import product

from geocrystal.cartan import (
    HighestWeight,
    Partition,
    a_of_vw,
    as_composition,
    as_highest_weight,
    as_partition,
    gl_partitions,
    hw_to_partition,
    irrep_dim,
    weight_of_vw,
)
from geocrystal.crystal import highest_weight_crystal, weight_multiplicity
from geocrystal.errors import NotInImageError, SizeMismatchError
from geocrystal.linalg import RatMat, rank
from geocrystal.repalg import margin_matrix_count

# Mersenne prime 2^31 - 1.  A rank mod p never exceeds the rank over Q, and
# only a minor divisible by p can make it smaller.
PRIME = 2_147_483_647


def kostka(lam, a) -> int:
    """Number of semistandard tableaux of shape lam and content a."""
    lam = as_partition(lam)
    a = tuple(int(c) for c in a)
    if any(c < 0 for c in a):
        return 0
    if lam.size != sum(a):
        raise SizeMismatchError(f"|{lam.parts}| != sum{a}")
    if not lam.parts:
        return 1
    rows = len(lam.parts)
    shape = lam.parts
    remaining = list(a)
    column: list[list[int]] = [[0] * r for r in shape]

    def fill(row: int, col: int) -> int:
        if row == rows:
            return 1
        nrow, ncol = (row, col + 1) if col + 1 < shape[row] else (row + 1, 0)
        total = 0
        lo = column[row][col - 1] if col > 0 else 1
        for letter in range(lo, len(remaining) + 1):
            if remaining[letter - 1] == 0:
                continue
            if row > 0 and col < shape[row - 1] and letter <= column[row - 1][col]:
                continue
            column[row][col] = letter
            remaining[letter - 1] -= 1
            total += fill(nrow, ncol)
            remaining[letter - 1] += 1
            column[row][col] = 0
        return total

    return fill(0, 0)


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def margin_sum(n: int, d: int) -> int:
    """Sum of margin_matrix_count over all pairs of n-part compositions of d."""
    comps = [as_composition(c) for c in compositions(d, n)]
    return sum(margin_matrix_count(d1, d2) for d1 in comps for d2 in comps)


def contents_by_word(n: int, d: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every word in 1..n of length d, grouped by content, in lexicographic order."""
    blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for word in product(range(1, n + 1), repeat=d):
        counts = [0] * n
        for letter in word:
            counts[letter - 1] += 1
        blocks.setdefault(tuple(counts), []).append(word)
    return blocks


def words_of_content(content: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The words with these letter counts, in lexicographic order: each
    level extends the words of the last in order, letter by letter."""
    level = [((), content)]
    for _ in range(sum(content)):
        level = [
            (word + (letter + 1,), left[:letter] + (left[letter] - 1,) + left[letter + 1 :])
            for word, left in level
            for letter in range(len(left))
            if left[letter]
        ]
    return [word for word, _ in level]


def rank_mod_p(rows: int, cols: int, triplets: list[tuple[int, int, int]]) -> int:
    """Rank modulo PRIME by sparse column elimination.

    Each column is a {row: value} dict.  It is reduced against the pivot
    columns, keyed by their leading (least) row, until its leading row is
    new; then it becomes the pivot of that row, scaled to leading entry 1.
    Columns are taken from the last to the first: on the raising-operator
    blocks that order takes a third of the time of the opposite one.
    """
    columns: dict[int, dict[int, int]] = {}
    for r, c, vt in triplets:
        column = columns.setdefault(c, {})
        column[r] = column.get(r, 0) + vt
    pivots: dict[int, dict[int, int]] = {}
    for c in sorted(columns, reverse=True):
        column = {r: x % PRIME for r, x in columns[c].items() if x % PRIME}
        while column:
            lead = min(column)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(column[lead], -1, PRIME)
                pivots[lead] = {r: x * inv % PRIME for r, x in column.items()}
                break
            f = column[lead]
            for r, x in pivot.items():
                # f * x is nonzero mod PRIME, so y == 0 only where r is a key
                y = (column.get(r, 0) - f * x) % PRIME
                if y:
                    column[r] = y
                else:
                    del column[r]
        if len(pivots) == rows:
            break
    return len(pivots)


def rank_exact(rows: int, cols: int, triplets: list[tuple[int, int, int]]) -> int:
    if rows == 0 or cols == 0 or not triplets:
        return 0
    data = [[0] * cols for _ in range(rows)]
    for r, c, vt in triplets:
        data[r][c] += vt
    return rank(RatMat(data, cols=cols))


def singular_multiplicities(n: int, d: int) -> dict[tuple[int, ...], int]:
    """Multiplicity of each dominant content a, certified exact via checksum.

    It is the dimension of the joint kernel of the raising operators
    e_k: block(a) -> block(a + alpha_k), so only the dominant blocks and
    their raising targets are built, once per call, each the lexicographic
    list of the words of its content.  The ranks are taken mod PRIME, and
    recomputed by rank_exact if the checksum sum(mult * dim) = n^d fails
    (mod-p kernels can only be too big).
    """
    blocks: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def block(content: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        if content not in blocks:
            blocks[content] = {wd: i for i, wd in enumerate(words_of_content(content))}
        return blocks[content]

    dominant = [lam.parts + (0,) * (n - len(lam.parts)) for lam in gl_partitions(d, n)]

    def kernels(rank_fn) -> dict[tuple[int, ...], int]:
        mults = {}
        for a in dominant:
            source = block(a)
            triplets: list[tuple[int, int, int]] = []
            row_offset = 0
            for k in range(1, n):
                if a[k] == 0:
                    continue
                # e_k turns one letter k+1 into k
                target = block(a[: k - 1] + (a[k - 1] + 1, a[k] - 1) + a[k + 1 :])
                for col, word in enumerate(source):
                    for pos, letter in enumerate(word):
                        if letter == k + 1:
                            row = target[word[:pos] + (k,) + word[pos + 1 :]]
                            triplets.append((row_offset + row, col, 1))
                row_offset += len(target)
            mults[a] = len(source) - rank_fn(row_offset, len(source), triplets)
        return mults

    mults = kernels(rank_mod_p)
    checksum = sum(m * irrep_dim(partition_of_content(a), n) for a, m in mults.items())
    if checksum != n**d:
        mults = kernels(rank_exact)
    return mults


def partition_of_content(a: tuple[int, ...]) -> Partition:
    return Partition(tuple(p for p in a if p > 0))


def valid_dimvecs(w) -> list[tuple[int, ...]]:
    """Dimension vectors with a non-empty stable locus (Kostka number > 0)."""
    w = as_highest_weight(w)
    n = w.n
    d = w.level_d
    lam = hw_to_partition(w)
    out = []
    for v in product(range(d + 1), repeat=n - 1):
        try:
            a = a_of_vw(v, w)
        except NotInImageError:
            continue
        if kostka(lam, a.parts) > 0:
            out.append(v)
    return out


def dominant_weights_of(w) -> list[tuple[HighestWeight, bool]]:
    """Dominant candidates omega_w - alpha_v with their weight-membership flag.

    Candidates are enumerated over the box where the associated composition is
    non-negative.  A candidate outside the image of a(v, w) is flagged False;
    any other is flagged by the crystal model B(omega_w), True when it has a
    vertex of content a(v, w).
    """
    w = as_highest_weight(w)
    n = w.n
    d = w.level_d
    graph = highest_weight_crystal(w)
    out = []
    for v in product(range(d + 1), repeat=n - 1):
        mu = weight_of_vw(v, w).omega
        if any(c < 0 for c in mu):
            continue
        try:
            a = a_of_vw(v, w)
        except NotInImageError:
            out.append((HighestWeight(mu), False))
            continue
        member = weight_multiplicity(graph, a.parts) > 0
        out.append((HighestWeight(mu), member))
    out.sort(key=lambda pair: pair[0].w, reverse=True)
    return out
