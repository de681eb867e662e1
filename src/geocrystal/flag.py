"""n-step flags in Q^d, nilpotent endomorphisms and the flag-side
statistics (compositions, sign exponents, Hecke pairs, epsilon and the
maximal stratum reduction).
"""

from __future__ import annotations

from typing import Sequence

from .cartan import (
    Composition,
    as_composition,
    as_highest_weight,
)
from .errors import (
    DimensionMismatchError,
    IncompatibleError,
    InvalidRankError,
    MembershipError,
    SizeMismatchError,
)
from .linalg import (
    RatMat,
    Subspace,
    _json_int,
    _json_keys,
    _json_list,
    canonicalize,
    contains,
    contains_image,
    intersect,
    power_ranks,
    preimage,
)
from .values import Frozen, Value


class NilEndo(Value):
    """Endomorphism x of Q^d with x^n = 0, certified at construction."""

    __slots__ = ("x", "n")

    def __init__(self, x: RatMat, n: int):
        if x.rows != x.cols:
            raise DimensionMismatchError("endomorphism must be square")
        if n < 2:
            raise InvalidRankError(f"n must be >= 2, got {n}")
        ranks = power_ranks(x)
        if ranks[-1] or len(ranks) - 1 > n:
            raise IncompatibleError(f"x^{n} != 0: not nilpotent of degree <= n")
        super().__init__(x, n)

    @property
    def d(self) -> int:
        return self.x.rows


class Flag(Frozen):
    """Chain 0 = F_0 ⊆ F_1 ⊆ ... ⊆ F_n = Q^d of canonical subspaces.

    The flag is immutable, so :func:`flag_membership` records its last
    verdict on it together with the nilpotent it was proved for, and
    :func:`_max_admissible` records each meet it finds for that nilpotent
    in the same record: (x, verdict, {k: meet}).
    """

    __slots__ = ("d", "n", "spaces", "_fiber")

    def __init__(self, spaces: Sequence[Subspace], n: int | None = None):
        spaces = tuple(spaces)
        if n is None:
            n = len(spaces) - 1
        if len(spaces) != n + 1:
            raise DimensionMismatchError(f"need n+1={n + 1} spaces, got {len(spaces)}")
        if n < 2:
            raise InvalidRankError("flag needs n >= 2")
        d = spaces[0].ambient_dim
        if any(s.ambient_dim != d for s in spaces):
            raise DimensionMismatchError("mixed ambient dimensions in flag")
        if not spaces[0].is_zero():
            raise IncompatibleError("F_0 must be the zero subspace")
        if not spaces[-1].is_full():
            raise IncompatibleError("F_n must be the full space")
        for i in range(n):
            if not contains(spaces[i + 1], spaces[i]):
                raise IncompatibleError(f"F_{i} is not contained in F_{i + 1}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "_fiber", None)

    def __getitem__(self, i: int) -> Subspace:
        return self.spaces[i]

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and self.n == other.n
            and self.spaces == other.spaces
        )

    def __hash__(self):
        return hash((self.n, self.spaces))

    def __repr__(self):
        dims = tuple(s.dim for s in self.spaces)
        return f"Flag(d={self.d}, n={self.n}, dims={dims})"

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "spaces": [s.basis.to_json() for s in self.spaces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Flag":
        """Inverse of to_json.  The keys are d, n and spaces, no others; d and
        n must be JSON integers and spaces a list; anything else raises
        ValueError (or KeyError for a missing field)."""
        if not isinstance(obj, dict):
            raise ValueError("a flag is an object")
        _json_keys(obj, ("d", "n", "spaces"), "flag")
        d = _json_int(obj["d"], "d")
        spaces = [
            canonicalize(RatMat.from_json(b), d) for b in _json_list(obj["spaces"], "spaces")
        ]
        return cls(spaces, _json_int(obj["n"], "n"))


def block_shift_x(w) -> tuple[NilEndo, tuple[tuple[int, int], ...]]:
    """Canonical nilpotent of type 1^{w_1} 2^{w_2} ... (n-1)^{w_{n-1}}.

    The ambient Q^d is the direct sum of copies W_k^(m), 1 <= m <= k, laid out
    lexicographically by (k, m) with each copy carrying the standard basis of
    Q^{w_k}.  x maps W_k^(m) identically onto W_k^(m-1) and kills W_k^(1).
    Returns (x, labels) with labels[c] = (k, m) for each coordinate c.
    """
    w = as_highest_weight(w)
    n = w.n
    d = w.level_d
    labels: list[tuple[int, int]] = []
    offsets: dict[tuple[int, int], int] = {}
    pos = 0
    for k in range(1, n):
        for m in range(1, k + 1):
            offsets[(k, m)] = pos
            labels.extend([(k, m)] * w[k - 1])
            pos += w[k - 1]
    rows = [[0] * d for _ in range(d)]
    for k in range(1, n):
        for m in range(2, k + 1):
            src, dst = offsets[(k, m)], offsets[(k, m - 1)]
            for t in range(w[k - 1]):
                rows[dst + t][src + t] = 1
    return NilEndo(RatMat(rows, cols=d), n), tuple(labels)


def flag_membership(x: NilEndo, F: Flag) -> bool:
    """True iff x(F_i) ⊆ F_{i-1} for all i, i.e. F lies in the fiber over x."""
    if x.d != F.d or x.n != F.n:
        raise SizeMismatchError(f"x has (d={x.d}, n={x.n}), F has (d={F.d}, n={F.n})")
    if F._fiber is not None and F._fiber[0] == x:
        return F._fiber[1]
    verdict = all(contains_image(F[i - 1], x.x, F[i]) for i in range(1, F.n + 1))
    object.__setattr__(F, "_fiber", (x, verdict, {}))
    return verdict


def composition_of(F: Flag) -> Composition:
    """Step dimensions d_i = dim F_i - dim F_{i-1}."""
    return Composition(
        tuple(F[i].dim - F[i - 1].dim for i in range(1, F.n + 1))
    )


def _pair_sum(parts: Sequence[int]) -> int:
    """sum_{i<j} d_i d_j, a polynomial in the parts, so a part may be negative."""
    total = acc = 0
    for p in parts:
        total += acc * p
        acc += p
    return total


def flag_dim(d) -> int:
    """Complex dimension of the partial flag manifold: sum_{i<j} d_i d_j."""
    return _pair_sum(as_composition(d))


def s_k_exponent(d, k: int) -> int:
    """Sign exponent s_k(d_k^+, d) = dim F_{d_k^+} - dim F_d = d_{k+1}-d_k-1.

    The dimension difference is evaluated formally (as a polynomial in the
    parts), so the exponent is defined even where d_k^+ is the ghost; the
    lowering-operator sum needs the sign at exactly those strata.
    """
    d = as_composition(d)
    if not 1 <= k <= d.n - 1:
        raise InvalidRankError(f"shift index {k} out of range for n={d.n}")
    shifted = list(d.parts)
    shifted[k - 1] += 1
    shifted[k] -= 1
    return _pair_sum(shifted) - _pair_sum(d)


def is_hecke_pair(Fp: Flag, F: Flag, k: int) -> bool:
    """True iff (F', F) has equal steps away from k and F_k ⊂ F'_k of codim 1."""
    if Fp.d != F.d or Fp.n != F.n:
        raise SizeMismatchError("flag sizes disagree")
    if not 1 <= k <= F.n - 1:
        raise InvalidRankError(f"index {k} out of range")
    for l in range(F.n + 1):
        if l == k:
            continue
        if Fp[l] != F[l]:
            return False
    return Fp[k].dim == F[k].dim + 1 and contains(Fp[k], F[k])


def _max_admissible(F: Flag, x: NilEndo, k: int) -> Subspace:
    """F_{k+1} ∩ x^{-1}(F_{k-1}), the largest subspace that can stand in for
    F_k; requires 1 <= k <= n - 1 and F in the fiber of x.  The meet is
    recorded on F beside the fiber verdict for x, so it is found once per
    (flag, x, k) and a meet found for one x is never read for another."""
    if not 1 <= k <= F.n - 1:
        raise InvalidRankError(f"index {k} out of range")
    if not flag_membership(x, F):
        raise MembershipError("flag is not compatible with x")
    meets = F._fiber[2]
    if k not in meets:
        meets[k] = intersect(F[k + 1], preimage(x.x, F[k - 1]))
    return meets[k]


def epsilon_k_flag(F: Flag, x: NilEndo, k: int) -> int:
    """dim(F_{k+1} ∩ x^{-1}(F_{k-1})) - dim F_k; requires F in the fiber of x."""
    return _max_admissible(F, x, k).dim - F[k].dim


def flag_reduce(F: Flag, x: NilEndo, k: int) -> tuple[Flag, int]:
    """Replace F_k by the maximal admissible subspace F_{k+1} ∩ x^{-1}(F_{k-1}).

    The output is again in the fiber of x, has epsilon_k = 0, and its
    composition is the (k, c)-shift of the input composition, c = epsilon_k(F).
    """
    meet = _max_admissible(F, x, k)
    c = meet.dim - F[k].dim
    if c == 0:
        return F, 0
    spaces = list(F.spaces)
    spaces[k] = meet
    return Flag(spaces, F.n), c


def flag_bundle_to_json(x: NilEndo, flags: Sequence[Flag]) -> dict:
    """File schema pairing a nilpotent with a list of flags in its fiber."""
    return {
        "schema_version": "1",
        "d": x.d,
        "n": x.n,
        "x": x.x.to_json(),
        "flags": [F.to_json() for F in flags],
    }


def flag_bundle_from_json(obj: dict) -> tuple[NilEndo, list[Flag]]:
    """Inverse of flag_bundle_to_json.  The keys are those it writes, no
    others, and schema_version, if given, is "1"; d and n must be JSON
    integers and flags a list, each flag read by Flag.from_json; anything
    else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a flag bundle is an object")
    _json_keys(obj, ("schema_version", "d", "n", "x", "flags"), "flag bundle")
    x = NilEndo(RatMat.from_json(obj["x"]), _json_int(obj["n"], "n"))
    if _json_int(obj["d"], "d") != x.d:
        raise SizeMismatchError("bundle d does not match x")
    flags = [Flag.from_json(f) for f in _json_list(obj["flags"], "flags")]
    for F in flags:
        if F.d != x.d or F.n != x.n:
            raise SizeMismatchError("bundle flag does not match x")
    return x, flags
