"""Reference implementations of three ``geocrystal`` combinatorics kernels.

These are the enumerating versions the package used before it counted by
recursion and symmetry: Kostka numbers by filling the diagram cell by cell,
the margin-matrix sum over every pair of compositions, and the weight blocks
of (Q^n)^{tensor d} from all n^d words.  They are kept only as the oracles of
the differential tests in ``test_repalg.py``; nothing in the package imports
them.
"""

from __future__ import annotations

from itertools import product

from geocrystal.cartan import as_composition, as_partition
from geocrystal.errors import SizeMismatchError
from geocrystal.repalg import margin_matrix_count


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
