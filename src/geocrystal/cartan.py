"""sl_n Cartan data, weight arithmetic, partitions, compositions, the
dimensions of the irreducibles and the index bijections shared by the flag
and quiver sides.

Conventions: vertices are 1..n-1; omega-coordinates are the canonical weight
storage; eps-coordinates are normalized so the last entry is 0 and equality
is modulo the all-ones vector.

The index data, the weight, the highest weight, the composition, the
dimension vector and the partition, are :class:`IntTuple` values: each
stores one tuple of ints and iterates, indexes and serialises as it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Iterator, Sequence

from .errors import IncompatibleError, InvalidRankError, NotInImageError
from .values import Value


@lru_cache(maxsize=None)
def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The (n-1)x(n-1) Cartan matrix of type A_{n-1}, built once per n: the
    nested tuples are immutable, so every caller shares them."""
    if n < 2:
        raise InvalidRankError(f"rank parameter n must be >= 2, got {n}")
    size = n - 1
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(size))
        for i in range(size)
    )


class IntTuple(Value):
    """A value whose one field is a tuple of ints: it iterates, has a length,
    indexes and serialises as that tuple.  A subclass names the field in its
    ``__slots__`` and normalises it to a tuple of ints in its ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        (field,) = cls.__slots__
        cls._ints = cls.__dict__[field]  # the field's slot descriptor: self._ints reads it

    def __iter__(self):
        return iter(self._ints)

    def __len__(self):
        return len(self._ints)

    def __getitem__(self, k):
        return self._ints[k]

    def to_json(self) -> list[int]:
        return list(self._ints)


class Weight(IntTuple):
    """sl_n weight stored in fundamental-weight coordinates."""

    __slots__ = ("omega",)

    def __init__(self, omega: tuple[int, ...]):
        omega = tuple(int(c) for c in omega)
        if len(omega) < 1:
            raise InvalidRankError("weight needs at least one omega coordinate")
        super().__init__(omega)

    @property
    def n(self) -> int:
        return len(self.omega) + 1

    @property
    def eps(self) -> tuple[int, ...]:
        """eps-coordinates normalized so the last entry is 0: eps_k is the
        suffix sum omega_k + ... + omega_{n-1}."""
        return tuple(accumulate(reversed(self.omega)))[::-1] + (0,)

    @classmethod
    def from_eps(cls, eps: Sequence[int]) -> "Weight":
        """The weight of eps-coordinates eps_1..eps_n: omega_k = eps_k - eps_{k+1}.
        eps is validated here, so the differences, n - 1 >= 1 ints, are stored
        as they are."""
        eps = [int(e) for e in eps]
        if len(eps) < 2:
            raise InvalidRankError("eps coordinates need length >= 2")
        return cls._trusted(tuple(map(sub, eps, eps[1:])))

    def __sub__(self, other: "Weight") -> "Weight":
        if self.n != other.n:
            raise IncompatibleError("weight rank mismatch")
        return Weight(tuple(a - b for a, b in zip(self.omega, other.omega)))


class HighestWeight(IntTuple):
    """Dominant weight given by n-1 non-negative integers w_k."""

    __slots__ = ("w",)

    def __init__(self, w: tuple[int, ...]):
        w = tuple(int(c) for c in w)
        if len(w) < 1:
            raise InvalidRankError("highest weight needs n >= 2")
        if any(c < 0 for c in w):
            raise IncompatibleError(f"negative entry in highest weight {w}")
        super().__init__(w)

    @property
    def n(self) -> int:
        return len(self.w) + 1

    @property
    def level_d(self) -> int:
        """Sum over k of k*w_k; the size of the associated flag ambient."""
        return sum((k + 1) * c for k, c in enumerate(self.w))


class Composition(IntTuple):
    """Composition of d into len(parts) non-negative integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(c) for c in parts)
        if any(c < 0 for c in parts):
            raise IncompatibleError(f"negative part in composition {parts}")
        super().__init__(parts)

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def n(self) -> int:
        return len(self.parts)


class DimVec(IntTuple):
    """Graded dimension vector over the n-1 quiver vertices."""

    __slots__ = ("v",)

    def __init__(self, v: tuple[int, ...]):
        v = tuple(int(c) for c in v)
        if len(v) < 1:
            raise InvalidRankError("dimension vector needs n >= 2")
        if any(c < 0 for c in v):
            raise IncompatibleError(f"negative entry in dimension vector {v}")
        super().__init__(v)

    @property
    def n(self) -> int:
        return len(self.v) + 1


class Partition(IntTuple):
    """Weakly decreasing positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(c) for c in parts)
        if any(c <= 0 for c in parts):
            raise IncompatibleError(f"non-positive part in partition {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise IncompatibleError(f"parts not weakly decreasing: {parts}")
        super().__init__(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(
                sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
            )
        )


def as_highest_weight(w) -> HighestWeight:
    return w if isinstance(w, HighestWeight) else HighestWeight(tuple(w))


def as_composition(d) -> Composition:
    return d if isinstance(d, Composition) else Composition(tuple(d))


def as_dimvec(v) -> DimVec:
    return v if isinstance(v, DimVec) else DimVec(tuple(v))


def as_partition(p) -> Partition:
    return p if isinstance(p, Partition) else Partition(tuple(p))


def pair_with_coroot(mu: Weight, k: int) -> int:
    """<h_k, mu> for the k-th simple coroot, 1 <= k <= n-1."""
    if not 1 <= k <= mu.n - 1:
        raise InvalidRankError(f"coroot index {k} out of range for n={mu.n}")
    return mu.omega[k - 1]


def omega_weight(w) -> Weight:
    """The dominant weight sum_k w_k omega_k."""
    return Weight(as_highest_weight(w).w)


def alpha_weight(v) -> Weight:
    """The root-lattice element sum_k v_k alpha_k, in omega-coordinates (= Cv)."""
    v = as_dimvec(v)
    C = cartan_matrix(v.n)
    return Weight(tuple(sum(row[j] * v[j] for j in range(len(v))) for row in C))


def weight_of_vw(v, w) -> Weight:
    """omega_w - alpha_v, the weight common to both constructions."""
    return omega_weight(w) - alpha_weight(v)


def hw_to_partition(w) -> Partition:
    """Partition with lambda_k = w_k + ... + w_{n-1}; trailing zeros dropped.
    Its conjugate is the Jordan type of the block-shift nilpotent of w."""
    return Partition(tuple(p for p in omega_weight(w).eps if p > 0))


def is_partition_of(w, d: int) -> bool:
    """Strict reading: the highest weight w is a partition of d iff sum k*w_k = d."""
    return as_highest_weight(w).level_d == int(d)


def partition_to_hw(lam, n: int) -> HighestWeight:
    """Highest weight with w_k = lambda_k - lambda_{k+1}; lam must have < n rows
    after reduction (full columns are NOT removed here, see reduce_mod_full_columns)."""
    lam = as_partition(lam)
    if len(lam) > n - 1:
        raise IncompatibleError(f"partition {lam.parts} has too many rows for n={n}")
    padded = list(lam.parts) + [0] * (n - len(lam.parts))
    return HighestWeight(tuple(padded[k] - padded[k + 1] for k in range(n - 1)))


def reduce_mod_full_columns(lam, n: int) -> Partition:
    """Remove height-n columns: the sl_n content of a GL_n partition."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise IncompatibleError(f"partition {lam.parts} has more than n={n} rows")
    if len(lam) < n:
        return lam
    c = lam.parts[n - 1]
    return Partition(tuple(p - c for p in lam.parts if p - c > 0))


def irrep_dim(lam, n: int) -> int:
    """Dimension of the sl_n irreducible of highest weight lam (mod full
    columns), by the hook content formula."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise IncompatibleError(f"partition {lam.parts} has more than {n} rows")
    lam = reduce_mod_full_columns(lam, n)
    if not lam.parts:
        return 1
    conj = lam.conjugate().parts
    num = 1
    den = 1
    for i, row in enumerate(lam.parts, start=1):
        for j in range(1, row + 1):
            num *= n + j - i
            den *= row - j + conj[j - 1] - i + 1
    dim, rem = divmod(num, den)
    if rem:
        raise IncompatibleError("hook content product is not integral")
    return dim


def gl_partitions(d: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of d with at most max_parts rows, decreasing lex order."""

    def rec(remaining: int, cap: int, parts_left: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        if parts_left == 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, parts_left - 1, prefix)
            prefix.pop()

    yield from rec(d, d, max_parts, [])


GHOST = None  # explicit absent value for the ghost composition


def comp_shift(d, k: int, sign: int) -> Composition | None:
    """d_k^+ or d_k^-; returns None (the ghost) when a part would go negative."""
    d = as_composition(d)
    if not 1 <= k <= d.n - 1:
        raise InvalidRankError(f"shift index {k} out of range for n={d.n}")
    if sign not in (1, -1):
        raise IncompatibleError("sign must be +1 or -1")
    parts = list(d.parts)
    parts[k - 1] += sign
    parts[k] -= sign
    if parts[k - 1] < 0 or parts[k] < 0:
        return GHOST
    return Composition(tuple(parts))


def a_of_vw(v, w) -> Composition:
    """The composition a(v, w): a_1 = w_1+..+w_{n-1} - v_1, a_n = v_{n-1},
    a_k = w_k+..+w_{n-1} - v_k + v_{k-1} in between."""
    v, w = as_dimvec(v), as_highest_weight(w)
    if v.n != w.n:
        raise IncompatibleError(f"rank mismatch: v has n={v.n}, w has n={w.n}")
    n = w.n
    suffix = omega_weight(w).eps  # suffix[k] = w_{k+1} + ... + w_{n-1} with 0-based k
    a = []
    for k in range(n):
        if k == n - 1:
            ak = v[n - 2]
        elif k == 0:
            ak = suffix[0] - v[0]
        else:
            ak = suffix[k] - v[k] + v[k - 1]
        if ak < 0:
            raise NotInImageError(
                f"a_{k + 1} = {ak} < 0: v={v.v} is not in the image for w={w.w}"
            )
        a.append(ak)
    return Composition(tuple(a))


def v_of_aw(a, w) -> DimVec:
    """Inverse of a_of_vw, solved from a_n = v_{n-1} upward."""
    a, w = as_composition(a), as_highest_weight(w)
    if a.n != w.n:
        raise IncompatibleError(f"rank mismatch: a has n={a.n}, w has n={w.n}")
    if a.d != w.level_d:
        raise IncompatibleError(
            f"sum of a is {a.d} but w is a partition of {w.level_d}"
        )
    n = w.n
    suffix = omega_weight(w).eps
    v = [0] * (n - 1)
    v[n - 2] = a[n - 1]
    for k in range(n - 2, 0, -1):  # solve a_{k+1} = suffix[k] - v[k] + v[k-1]
        v[k - 1] = a[k] - suffix[k] + v[k]
        if v[k - 1] < 0:
            raise NotInImageError(f"solved v_{k} = {v[k - 1]} < 0")
    if a[0] != suffix[0] - v[0]:
        raise NotInImageError("first coordinate inconsistent; a not in the image")
    return DimVec(tuple(v))


def jordan_type(d) -> Partition:
    """lambda_d = 1^{a_1-a_2} 2^{a_2-a_3} ... n^{a_n} for a = sorted(d, desc)."""
    d = as_composition(d)
    alpha = sorted(d.parts, reverse=True)
    n = len(alpha)
    parts: list[int] = []
    for i in range(n, 0, -1):  # build descending: biggest block sizes first
        nxt = alpha[i] if i < n else 0
        parts.extend([i] * (alpha[i - 1] - nxt))
    return Partition(tuple(parts))


def dominates(lam, mu) -> bool:
    """Dominance order on partitions of equal size: lam >= mu."""
    lam, mu = as_partition(lam), as_partition(mu)
    if lam.size != mu.size:
        raise IncompatibleError(f"|{lam.parts}| != |{mu.parts}|")
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam.parts[i] if i < len(lam) else 0
        acc_m += mu.parts[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True
