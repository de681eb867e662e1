"""Exact rational linear algebra with canonical subspace representations.

Everything is computed over Q with no floating point anywhere.  A matrix is
stored as rows of Python ints over one common positive denominator, reduced
so that the denominator shares no factor with every numerator; equal matrices
therefore have identical representations.  Products are integer dot products,
and row reduction is Bareiss's fraction-free Gauss-Jordan elimination, so no
rational number is built inside a kernel.  The elimination rescales a row only
when it updates it, and brings the rows it left behind up to the last pivot
at the end; every division stays exact, and the result is the one eager
Bareiss returns (see ``_echelon``).  ``fractions.Fraction`` appears only
at the public accessors (``entries`` and ``kernel_basis``) and in the
``"p/q"`` strings of ``to_json``.

Subspaces are stored in reduced column-echelon form, so two equal subspaces
have identical stored bases and serialize to identical bytes.  That basis is
unique, so each canonical subspace is read off the one elimination that
decides it, never re-reduced: a spanning set (``canonicalize``) is eliminated
as rows, and a kernel (``kernel``, ``preimage``, ``intersect``) is eliminated
with its columns reversed, which leaves the kernel vectors already in reduced
form (see ``_null_space``).  ``preimage`` and ``intersect`` state their
subspaces as kernels through ``Subspace._annihilator``, whose rows are read
off a stored basis without an elimination.  The sampler alone draws from the
other kernel basis, the free-column vectors of ``_kernel_ints`` and
``kernel_basis``: its seeded coefficients combine exactly those vectors, so
they stay as they are to keep every sampled point the same.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .values import Frozen

# A JSON matrix entry given as a string: "p/q" in plain decimal, q > 0.
_ENTRY = re.compile("-?(0|[1-9][0-9]*)/[1-9][0-9]*")

Vector = tuple[Fraction, ...]
IntRows = tuple[tuple[int, ...], ...]


def _json_int(value, name: str) -> int:
    """A JSON integer: not a boolean, a float or a string."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_list(value, name: str) -> list:
    """A JSON array: not a string or an object."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _json_keys(obj: dict, fields: tuple[str, ...], name: str) -> None:
    """Refuse a key of the JSON object obj outside fields, and a
    schema_version other than "1"; a missing field is left to the reader."""
    unknown = [key for key in obj if key not in fields]
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    if obj.get("schema_version", "1") != "1":
        raise ValueError(f"unsupported {name} schema_version {obj['schema_version']!r}")


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _int_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Exact entries as integer rows over their least common denominator."""
    if all(type(e) is int for row in rows for e in row):
        return [list(row) for row in rows], 1
    fracs = [[_frac(e) for e in row] for row in rows]
    den = lcm(*(e.denominator for row in fracs for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in fracs], den


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _transpose(rows: Sequence[Sequence[int]], cols: int) -> list[tuple[int, ...]]:
    return list(zip(*rows)) if rows else [()] * cols


def _echelon(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Bareiss fraction-free Gauss-Jordan elimination, rescaling lazily.

    Returns (reduced, pivots, d) with d != 0 and reduced[:rank] = d * (the
    reduced row-echelon rows); rows below the rank are zero.

    Eager Bareiss brings every row to each new pivot: after the step with
    pivot piv_s, a row R becomes (piv_s R - R[c] top) / piv_{s-1}, or
    piv_s R / piv_{s-1} when R[c] = 0, and each entry is then a minor of the
    input (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 1968), so every division is exact.
    Here a row is rescaled only when it is updated.  level[i] is the pivot
    row i was last brought to, so the eager row is red[i] * prev / level[i]:
    the skipped factors piv_s / piv_{s-1} telescope.  Putting that row into
    the eager update gives (piv * red[i] - red[i][c] * top) / level[i],
    which is the eager result and so exact.  The pivot row is brought up to
    prev before it is used, and the rows left behind are brought up to d at
    the end; both are eager rows, so those divisions are exact as well.
    """
    red = [list(r) for r in rows]
    nrows = len(red)
    level = [1] * nrows
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for p in range(r, nrows):
            if red[p][c]:
                break
        else:
            continue
        top, lev = red[p], level[p]
        if p != r:
            red[p], level[p] = red[r], level[r]
            red[r] = top
        if lev != prev:
            top = red[r] = [a * prev // lev for a in top]
        piv = top[c]
        for i, row in enumerate(red):
            f = row[c]
            if f and i != r:
                lev = level[i]
                red[i] = [(piv * a - f * b) // lev for a, b in zip(row, top)]
                level[i] = piv
        level[r] = prev = piv
        pivots.append(c)
        r += 1
    for i in range(r):
        lev = level[i]
        if lev != prev:
            red[i] = [a * prev // lev for a in red[i]]
    return red, tuple(pivots), prev


def _echelon_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Integer echelon rows spanning the rows' span, one per unit of rank,
    each divided by the gcd of its entries so that entries stay small."""
    red, pivots, _ = _echelon(rows, ncols)
    out = []
    for row in red[: len(pivots)]:
        g = gcd(*row)
        out.append(row if g == 1 else [a // g for a in row])
    return out


def _product_map_rows(
    rows: int, cols: int, terms: Sequence[tuple[int, "RatMat", bool, int]], ncols: int
) -> list[list[int]]:
    """The nonzero integer rows of a linear map from unknown blocks to
    rows x cols matrices, flattened row-major.

    The unknowns are ncols coordinates; a term (offset, M, left, sign) adds
    sign * M X when left, else sign * X M, for X the row-major block of the
    unknowns at offset.  The rows are scaled by the lcm of the terms'
    denominators and zero rows are left out: neither changes the kernel.
    """
    den = lcm(*(m.den for _, m, _, _ in terms))
    scaled = [(offset, m.num, left, sign * (den // m.den)) for offset, m, left, sign in terms]
    out = []
    for p in range(rows):
        for q in range(cols):
            row = [0] * ncols
            for offset, num, left, c in scaled:
                if left:  # (M X)[p, q] = sum_t M[p, t] X[t, q]
                    for t, a in enumerate(num[p]):
                        row[offset + t * cols + q] += c * a
                else:  # (X M)[p, q] = sum_t X[p, t] M[t, q], X with len(num) columns
                    base = offset + p * len(num)
                    for t, mrow in enumerate(num):
                        row[base + t] += c * mrow[q]
            if any(row):
                out.append(row)
    return out


def _kernel_ints(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], int]:
    """Kernel vectors scaled to integers, and the scale d.

    The vector for free column f is d times the :func:`kernel_basis` vector:
    d at f, minus the f-th column of the eliminated rows at the pivots, so
    it has entries at earlier pivot columns and is not the reduced basis
    that :func:`kernel` returns.  The sampler's random kernel points are
    seeded combinations of exactly these vectors, which is why this basis
    is kept as it is.
    """
    red, pivots, d = _echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = d
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis, d


class RatMat(Frozen):
    """Dense immutable matrix over Q.

    ``num`` holds the integer rows and ``den`` the common denominator; the
    entry (i, j) is num[i][j] / den, with den > 0 and gcd(den, all of num) = 1.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        ent = [tuple(row) for row in entries]
        if ent:
            width = len(ent[0])
            if any(len(row) != width for row in ent):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"cols={cols} but rows have width {width}")
            cols = width
        elif cols is None:
            raise DimensionMismatchError("empty matrix needs explicit cols")
        num, den = _int_rows(ent)
        self._set(tuple(map(tuple, num)), den, cols)

    def _set(self, num: IntRows, den: int, cols: int) -> None:
        # the slot descriptors write past Frozen.__setattr__
        _SET_NUM(self, num)
        _SET_DEN(self, den)
        _SET_ROWS(self, len(num))
        _SET_COLS(self, cols)

    @classmethod
    def _exact(cls, num: IntRows, cols: int, den: int = 1) -> "RatMat":
        """Internal constructor for rows already reduced against den > 0."""
        m = object.__new__(cls)
        m._set(num, den, cols)
        return m

    @classmethod
    def _reduce(cls, num: Iterable[Iterable[int]], cols: int, den: int = 1) -> "RatMat":
        """Internal constructor: integer rows over any nonzero denominator."""
        num = tuple(map(tuple, num))
        if den != 1:
            if den < 0:
                num = tuple(tuple(-a for a in row) for row in num)
                den = -den
            g = gcd(den, *(a for row in num for a in row))
            if g != 1:
                num = tuple(tuple(a // g for a in row) for row in num)
                den //= g
        return cls._exact(num, cols, den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMat":
        return cls._exact(((0,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls._exact(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def block(cls, grid: Sequence[Sequence["RatMat"]]) -> "RatMat":
        """The matrix assembled from a grid of blocks, over one common denominator.

        The blocks of a grid row share their row count, and every grid row has
        the same column counts; a grid row without blocks adds no rows.
        """
        widths = [b.cols for b in grid[0]] if grid else []
        for row in grid:
            if [b.cols for b in row] != widths or any(b.rows != row[0].rows for b in row):
                raise DimensionMismatchError("blocks do not line up")
        # gcd(den, num) stays 1: a prime power dividing den exactly divides the
        # denominator of some block, whose numerators it does not all divide.
        den = lcm(*(b.den for row in grid for b in row))
        num = []
        for row in grid:
            num.extend(sum(parts, ()) for parts in zip(*(b._scaled_to(den) for b in row)))
        return cls._exact(tuple(num), sum(widths), den)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of Fractions."""
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMat)
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"RatMat({self.rows}x{self.cols})"

    def __mul__(self, other):
        """The matrix product."""
        if not isinstance(other, RatMat):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.shape} * {other.shape}")
        if other.rows == 0:
            return RatMat.zeros(self.rows, other.cols)
        return RatMat._reduce(
            _matmul(self.num, other.num), other.cols, self.den * other.den
        )

    def select(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMat":
        """The submatrix on the given row and column indices, in that order."""
        return RatMat._reduce(
            [[self.num[i][j] for j in cols] for i in rows], len(cols), self.den
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def _scaled_to(self, den: int) -> IntRows:
        """The rows over the common denominator den (a multiple of self.den)."""
        s = den // self.den
        return self.num if s == 1 else tuple(tuple(s * a for a in row) for row in self.num)

    def inverse(self) -> "RatMat":
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        n = self.rows
        eye = RatMat.identity(n).num
        red, pivots, d = _echelon([ra + rb for ra, rb in zip(self.num, eye)], 2 * n)
        if pivots != tuple(range(n)):
            raise DimensionMismatchError("matrix is singular")
        # (num / den)^-1 = den * num^-1, and num^-1 is the right block over d
        return RatMat._reduce(
            [[self.den * a for a in row[n:]] for row in red], n, d
        )

    def to_json(self) -> dict:
        den = self.den
        out = []
        for row in self.num:
            strs = []
            for a in row:
                g = gcd(a, den)
                strs.append(f"{a // g}/{den // g}")
            out.append(strs)
        return {"rows": self.rows, "cols": self.cols, "entries": out}

    @classmethod
    def from_json(cls, obj: dict) -> "RatMat":
        """Inverse of to_json; a malformed payload raises ValueError or KeyError.

        The keys are rows, cols and entries, no others; rows and cols must be
        JSON integers, entries a list of rows, each a
        list, and an entry a JSON integer or a string of the _ENTRY grammar:
        not a boolean, a float, a decimal or an exponent."""
        if not isinstance(obj, dict):
            raise ValueError(f"matrix payload must be an object, not {type(obj).__name__}")
        _json_keys(obj, ("rows", "cols", "entries"), "matrix")
        if type(obj["rows"]) is not int or type(obj["cols"]) is not int:
            raise ValueError("matrix rows and cols must be integers")
        entries = obj["entries"]
        if type(entries) is not list or any(type(row) is not list for row in entries):
            raise ValueError("matrix entries must be a list of lists")
        for row in entries:
            for e in row:
                if type(e) is not int and (type(e) is not str or not _ENTRY.fullmatch(e)):
                    raise ValueError(f'bad matrix entry {e!r}: not an integer or "p/q"')
        m = cls(entries, cols=obj["cols"])
        if m.rows != obj["rows"]:
            raise DimensionMismatchError("row count disagrees with payload")
        return m


_SET_ROWS = RatMat.rows.__set__
_SET_COLS = RatMat.cols.__set__
_SET_NUM = RatMat.num.__set__
_SET_DEN = RatMat.den.__set__


def rref(m: RatMat) -> tuple[RatMat, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns."""
    red, pivots, d = _echelon(m.num, m.cols)
    return RatMat._reduce(red, m.cols, d), pivots


def kernel_basis(m: RatMat) -> list[Vector]:
    """Basis of {x : m x = 0}, one vector per free column."""
    vectors, d = _kernel_ints(m.num, m.cols)
    return [tuple(Fraction(a, d) for a in v) for v in vectors]


def rank(m: RatMat) -> int:
    """The rank of m over Q."""
    return len(_echelon(m.num, m.cols)[1])


def power_ranks(m: RatMat) -> list[int]:
    """The ranks of m^0, m^1, ... up to the first power whose image m does
    not shrink.  m is nilpotent iff the list ends in 0, and then its length
    less one is the least s with m^s = 0."""
    if m.rows != m.cols:
        raise DimensionMismatchError("powers of a non-square matrix")
    ranks = [m.rows]
    spanning = m
    while ranks[-1]:
        image = canonicalize(spanning, m.rows)
        if image.dim == ranks[-1]:
            break
        ranks.append(image.dim)
        spanning = m * image.basis
    return ranks


class Subspace(Frozen):
    """Subspace of Q^ambient with canonical reduced column-echelon basis.

    basis is ambient_dim x dim over one denominator, and pivots lists, for
    each column j, the first coordinate p_j where it is nonzero: column j is
    1 at p_j and 0 before p_j and at every other pivot.  Two equal
    subspaces are represented by identical objects; equality is plain
    attribute equality.  Construct through :func:`canonicalize`,
    :func:`kernel` and the operations built on them.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: RatMat, pivots: tuple[int, ...]):
        if basis.rows != ambient_dim:
            raise DimensionMismatchError("basis rows != ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _contains_ints(self, u: Sequence[int]) -> bool:
        # The basis column j has a unit at its pivot p_j, so u lies in the
        # span iff u = sum_j u[p_j] * column_j; multiply through by den.
        coeffs = [u[p] for p in self.pivots]
        den = self.basis.den
        return all(
            den * a == sum(map(mul, coeffs, row))
            for a, row in zip(u, self.basis.num)
        )

    def _annihilator(self) -> list[list[int]]:
        """Integer rows that cut the subspace out, one per non-pivot
        coordinate q: den e_q - sum_j num[q][j] e_{p_j}, which vanishes on
        u exactly when _contains_ints's equation at q holds.  They are
        ambient_dim - dim independent rows; the zero space gets den = 1
        times the identity and the full space none."""
        den, pivots = self.basis.den, self.pivots
        pivot_set = set(pivots)
        out = []
        for q, coeffs in enumerate(self.basis.num):
            if q in pivot_set:
                continue
            row = [0] * self.ambient_dim
            row[q] = den
            for p, a in zip(pivots, coeffs):
                row[p] = -a
            out.append(row)
        return out

    def _rows(self) -> list[tuple[int, ...]]:
        """The basis vectors as integer rows (each a multiple of a column)."""
        return _transpose(self.basis.num, self.dim)


def _span(vectors: Sequence[Sequence[int]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by integer vectors of length ambient_dim."""
    if not vectors:
        return zero_space(ambient_dim)
    red, pivots, d = _echelon(vectors, ambient_dim)
    basis = RatMat._reduce(_transpose(red[: len(pivots)], ambient_dim), len(pivots), d)
    return Subspace(ambient_dim, basis, pivots)


def canonicalize(spanning_set, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (or RatMat columns)."""
    if isinstance(spanning_set, RatMat):
        if spanning_set.rows != ambient_dim:
            raise DimensionMismatchError("spanning columns live in wrong ambient")
        return _span(_transpose(spanning_set.num, spanning_set.cols), ambient_dim)
    vectors = list(spanning_set)
    if any(len(v) != ambient_dim for v in vectors):
        raise DimensionMismatchError("spanning vector of wrong length")
    # one common denominator for all vectors leaves their span unchanged
    return _span(_int_rows(vectors)[0], ambient_dim)


# A Subspace is immutable, so one zero and one full space per ambient
# dimension serve every caller: every flag begins and ends with them.
@lru_cache(maxsize=None)
def zero_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, RatMat.zeros(ambient_dim, 0), ())


@lru_cache(maxsize=None)
def full_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, RatMat.identity(ambient_dim), tuple(range(ambient_dim)))


def _null_space(rows: Sequence[Sequence[int]], ncols: int) -> Subspace:
    """The canonical subspace {x : rows x = 0}, from one elimination.

    The rows are eliminated with their columns in reverse order.  The kernel
    vector of each free column f then has d at f, zeros at every other free
    column, and its other entries at the pivot columns that come after f in
    the original order; over d, these vectors are the reduced column-echelon
    basis of the kernel, with the free columns as its pivots.
    """
    red, pivots, d = _echelon([row[::-1] for row in rows], ncols)
    dim = ncols - len(pivots)
    if not dim:
        return zero_space(ncols)
    pivot_row = dict(zip(pivots, red))
    # the free columns in original order, as reversed indices
    free = [c for c in range(ncols - 1, -1, -1) if c not in pivot_row]
    num = []
    j = 0
    for c in range(ncols - 1, -1, -1):  # coordinate ncols - 1 - c
        row = pivot_row.get(c)
        if row is None:
            unit = [0] * dim
            unit[j] = d
            num.append(unit)
            j += 1
        else:
            num.append([-row[f] for f in free])
    basis = RatMat._reduce(num, dim, d)
    return Subspace(ncols, basis, tuple(ncols - 1 - f for f in free))


def kernel(m: RatMat) -> Subspace:
    """The canonical subspace {x : m x = 0}: its reduced column-echelon
    basis, one vector per free column with a unit there, read off one
    elimination (see :func:`_null_space`).  :func:`kernel_basis` returns
    the other, free-column basis of the same space."""
    return _null_space(m.num, m.cols)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """s1 ∩ s2 inside the common ambient space: the null space of the two
    annihilators stacked."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    if s1.dim == 0 or s2.is_full():
        return s1
    if s2.dim == 0 or s1.is_full():
        return s2
    return _null_space(s1._annihilator() + s2._annihilator(), s1.ambient_dim)


def preimage(m: RatMat, s: Subspace) -> Subspace:
    """{x : m x ∈ s} for s inside the codomain of m: the null space of the
    annihilator of s times m (m's denominator does not change it)."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatchError("subspace not in codomain")
    if s.is_full():
        return full_space(m.cols)
    return _null_space(_matmul(s._annihilator(), m.num), m.cols)


def contains(s1: Subspace, s2: Subspace) -> bool:
    """True iff s2 ⊆ s1."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    if s2.dim > s1.dim:
        return False
    return all(s1._contains_ints(u) for u in s2._rows())


def contains_image(s1: Subspace, m: RatMat, s2: Subspace) -> bool:
    """True iff m(s2) ⊆ s1, for m mapping the ambient of s2 to that of s1."""
    if m.rows != s1.ambient_dim or m.cols != s2.ambient_dim:
        raise DimensionMismatchError("map does not go from s2's ambient to s1's")
    if s2.dim == 0:
        return True
    image = _matmul(m.num, s2.basis.num)
    return all(s1._contains_ints(u) for u in _transpose(image, s2.dim))


def embed(s: Subspace, coords: Sequence[int], ambient_dim: int) -> Subspace:
    """Push a subspace of Q^len(coords) into Q^ambient via the inclusion of
    ascending coordinates.

    Such an inclusion keeps the reduced echelon form and its denominator, so
    the canonical basis rows are placed at their coordinates and each pivot p
    becomes coords[p]; coordinates that do not ascend raise
    DimensionMismatchError.
    """
    if len(coords) != s.ambient_dim:
        raise DimensionMismatchError("coordinate count != subspace ambient")
    if any(c < 0 or c >= ambient_dim for c in coords):
        raise DimensionMismatchError("coordinate out of range")
    if any(a >= b for a, b in zip(coords, coords[1:])):
        raise DimensionMismatchError("coordinates do not ascend")
    rows = [(0,) * s.dim] * ambient_dim
    for c, row in zip(coords, s.basis.num):
        rows[c] = row
    basis = RatMat._exact(tuple(rows), s.dim, s.basis.den)
    return Subspace(ambient_dim, basis, tuple(coords[p] for p in s.pivots))
