"""Reference implementation of ``geocrystal.linalg`` in plain ``Fraction`` arithmetic.

This is the textbook Gauss-Jordan version the package used before its kernel
moved to integer rows over a common denominator.  It is kept only as the
oracle of the differential tests in ``test_linalg.py``; nothing in the package
imports it.  Subspaces are stored in reduced column-echelon form, so both
implementations must agree entry for entry, not just up to span.

``echelon`` is the integer kernel's elimination as it was before it rescaled
rows lazily: eager Bareiss, every row brought to each new pivot.  It is the
oracle for ``linalg._echelon``, which must return the same triple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from geocrystal.errors import DimensionMismatchError

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def frac_str(x: Fraction) -> str:
    """Serialize a rational as "p/q" with q > 0 and gcd(p, q) = 1."""
    x = _frac(x)
    return f"{x.numerator}/{x.denominator}"


class RatMat:
    """Dense immutable matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        ent = tuple(tuple(_frac(e) for e in row) for row in entries)
        if ent:
            width = len(ent[0])
            if any(len(row) != width for row in ent):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"cols={cols} but rows have width {width}")
            cols = width
        elif cols is None:
            raise DimensionMismatchError("empty matrix needs explicit cols")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "rows", len(ent))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("RatMat is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMat":
        zero = Fraction(0)
        return cls([[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "RatMat":
        cols = [tuple(_frac(e) for e in c) for c in columns]
        if any(len(c) != rows for c in cols):
            raise DimensionMismatchError("column length != rows")
        return cls([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMat)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"RatMat({self.rows}x{self.cols})"

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return self.entries[i][j]

    def __add__(self, other: "RatMat") -> "RatMat":
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} + {other.shape}")
        return RatMat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self + (-other)

    def __neg__(self) -> "RatMat":
        return RatMat([[-a for a in row] for row in self.entries], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, RatMat):
            if self.cols != other.rows:
                raise DimensionMismatchError(f"{self.shape} * {other.shape}")
            ot = other.transpose().entries
            return RatMat(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in ot]
                    for row in self.entries
                ],
                cols=other.cols,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "RatMat":
        c = _frac(c)
        return RatMat([[c * a for a in row] for row in self.entries], cols=self.cols)

    def transpose(self) -> "RatMat":
        return RatMat(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def apply(self, vec: Sequence) -> Vector:
        v = tuple(_frac(e) for e in vec)
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length != cols")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def power(self, e: int) -> "RatMat":
        if self.rows != self.cols:
            raise DimensionMismatchError("power of non-square matrix")
        result = RatMat.identity(self.rows)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def hstack(self, other: "RatMat") -> "RatMat":
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack row mismatch")
        return RatMat(
            [ra + rb for ra, rb in zip(self.entries, other.entries)],
            cols=self.cols + other.cols,
        )

    def vstack(self, other: "RatMat") -> "RatMat":
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack col mismatch")
        return RatMat(self.entries + other.entries, cols=self.cols)

    def inverse(self) -> "RatMat":
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        n = self.rows
        aug, pivots = rref(self.hstack(RatMat.identity(n)))
        if list(pivots) != list(range(n)):
            raise DimensionMismatchError("matrix is singular")
        return RatMat([row[n:] for row in aug.entries], cols=n)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[frac_str(a) for a in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RatMat":
        m = cls(obj["entries"], cols=obj["cols"])
        if m.rows != obj["rows"]:
            raise DimensionMismatchError("row count disagrees with payload")
        return m


def rref(m: RatMat) -> tuple[RatMat, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns."""
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RatMat(rows, cols=ncols), tuple(pivots)


def kernel_basis(m: RatMat) -> list[Vector]:
    """Basis of {x : m x = 0}, one vector per free column."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return basis


def echelon(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Bareiss fraction-free Gauss-Jordan elimination.

    Returns (reduced, pivots, d) with d != 0 and reduced[:rank] = d * (the
    reduced row-echelon rows); rows below the rank are zero.  Every division
    by the previous pivot is exact, because each entry after a step is a
    minor of the input (Bareiss 1968).
    """
    red = [list(r) for r in rows]
    nrows = len(red)
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
        red[r], red[p] = red[p], red[r]
        top = red[r]
        piv = top[c]
        for i in range(nrows):
            if i == r:
                continue
            row = red[i]
            f = row[c]
            if f:
                red[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
            elif piv != prev and any(row):
                red[i] = [piv * a // prev for a in row]
        prev = piv
        pivots.append(c)
        r += 1
    return red, tuple(pivots), prev


class Subspace:
    """Subspace of Q^ambient with canonical reduced column-echelon basis.

    Two equal subspaces are represented by identical objects; equality is
    plain attribute equality.  Construct through :func:`canonicalize`.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: RatMat, pivots: tuple[int, ...]):
        if basis.rows != ambient_dim:
            raise DimensionMismatchError("basis rows != ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

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

    def contains_vector(self, vec: Sequence) -> bool:
        v = list(_frac(e) for e in vec)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector length != ambient")
        # Reduce against canonical basis columns; each has a unit pivot row.
        for j, p in enumerate(self.pivots):
            if v[p] != 0:
                f = v[p]
                col = self.basis.column(j)
                v = [a - f * b for a, b in zip(v, col)]
        return all(a == 0 for a in v)

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Subspace":
        basis = RatMat.from_json(obj["basis"])
        return canonicalize(basis.columns(), obj["ambient_dim"])


def canonicalize(spanning_set, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (or RatMat columns)."""
    if isinstance(spanning_set, RatMat):
        if spanning_set.rows != ambient_dim:
            raise DimensionMismatchError("spanning columns live in wrong ambient")
        vectors = spanning_set.columns()
    else:
        vectors = [tuple(_frac(e) for e in v) for v in spanning_set]
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionMismatchError("spanning vector of wrong length")
    if not vectors:
        return Subspace(ambient_dim, RatMat.zeros(ambient_dim, 0), ())
    red, pivots = rref(RatMat(vectors, cols=ambient_dim))
    rows = [red.entries[i] for i in range(len(pivots))]
    basis = RatMat.from_columns(rows, ambient_dim)
    return Subspace(ambient_dim, basis, pivots)


def zero_space(ambient_dim: int) -> Subspace:
    return canonicalize([], ambient_dim)


def full_space(ambient_dim: int) -> Subspace:
    return canonicalize(RatMat.identity(ambient_dim), ambient_dim)


def kernel_and_image(m: RatMat) -> tuple[Subspace, Subspace]:
    """(ker m, im m); dim ker + dim im = cols by rank-nullity."""
    ker = canonicalize(kernel_basis(m), m.cols)
    img = canonicalize(m, m.rows)
    return ker, img


def intersect_and_sum(s1: Subspace, s2: Subspace) -> tuple[Subspace, Subspace]:
    """(s1 ∩ s2, s1 + s2) inside the common ambient space."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    total = canonicalize(s1.basis.columns() + s2.basis.columns(), s1.ambient_dim)
    if s1.dim == 0 or s2.dim == 0:
        return zero_space(s1.ambient_dim), total
    stacked = s1.basis.hstack(s2.basis)
    vectors = [s1.basis.apply(k[: s1.dim]) for k in kernel_basis(stacked)]
    meet = canonicalize(vectors, s1.ambient_dim)
    return meet, total


def preimage(m: RatMat, s: Subspace) -> Subspace:
    """{x : m x ∈ s} for s inside the codomain of m."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatchError("subspace not in codomain")
    # Equations cutting out s: the left annihilator of its basis.
    ann = kernel_basis(s.basis.transpose())
    if not ann:
        return full_space(m.cols)
    constraints = RatMat(ann, cols=m.rows) * m
    return canonicalize(kernel_basis(constraints), m.cols)


def contains(s1: Subspace, s2: Subspace) -> bool:
    """True iff s2 ⊆ s1."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError("ambient mismatch")
    if s2.dim > s1.dim:
        return False
    return all(s1.contains_vector(c) for c in s2.basis.columns())


def embed(s: Subspace, coords: Sequence[int], ambient_dim: int) -> Subspace:
    """Push a subspace of Q^len(coords) into Q^ambient via coordinate inclusion."""
    if len(coords) != s.ambient_dim:
        raise DimensionMismatchError("coordinate count != subspace ambient")
    if any(c < 0 or c >= ambient_dim for c in coords):
        raise DimensionMismatchError("coordinate out of range")
    vectors = []
    for col in s.basis.columns():
        v = [Fraction(0)] * ambient_dim
        for c, a in zip(coords, col):
            v[c] = a
        vectors.append(tuple(v))
    return canonicalize(vectors, ambient_dim)
