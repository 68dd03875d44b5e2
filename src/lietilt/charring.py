"""The symmetric character ring of SL(2).

A character is a finitely supported integer multiplicity function on the
weight lattice, symmetric under negation.  It is stored sparsely over the
non-negative weights; the negative side is implied.  Multiplicities may be
negative so that virtual characters (differences of genuine ones) can be
represented; callers that model actual modules check non-negativity where
they need it.

All weights in one character share a single parity.  Mixing parities in a
sum is a hard error rather than a silent union: it always indicates that two
characters from different degrees were combined by mistake.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .modarith import ConsistencyError, prime_char

__all__ = [
    "ConsistencyError",
    "Partition2",
    "SymCharacter",
    "lambda_of",
    "two_row_partitions",
    "weight_set",
]


class SymCharacter:
    """An integer weight-multiplicity function, symmetric under negation."""

    __slots__ = ("_m",)

    def __init__(self, multiplicities: Mapping[int, int] = MappingProxyType({})):
        half: dict[int, int] = {}
        for w, c in multiplicities.items():
            if half.setdefault(abs(w), c) != c:
                raise ValueError(f"asymmetric multiplicities at weights +-{abs(w)}")
        half = {w: c for w, c in half.items() if c}
        if len({w & 1 for w in half}) > 1:
            raise ValueError("weights of mixed parity in one character")
        self._m = half

    # -- queries ---------------------------------------------------------

    def multiplicity(self, w: int) -> int:
        return self._m.get(abs(w), 0)

    @property
    def support(self) -> tuple[int, ...]:
        """Non-negative weights with nonzero multiplicity, descending."""
        return tuple(sorted(self._m, reverse=True))

    @property
    def max_weight(self) -> int | None:
        return max(self._m) if self._m else None

    @property
    def parity(self) -> int | None:
        for w in self._m:
            return w & 1
        return None

    @property
    def dim(self) -> int:
        """Signed total of all multiplicities, negative weights included."""
        return self._m.get(0, 0) + 2 * sum(c for w, c in self._m.items() if w > 0)

    @property
    def is_zero(self) -> bool:
        return not self._m

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "SymCharacter") -> "SymCharacter":
        if not isinstance(other, SymCharacter):
            return NotImplemented
        merged = dict(self._m)
        for w, c in other._m.items():
            merged[w] = merged.get(w, 0) + c
        return SymCharacter(merged)

    def __sub__(self, other: "SymCharacter") -> "SymCharacter":
        if not isinstance(other, SymCharacter):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c: int) -> "SymCharacter":
        """Multiply every multiplicity by the integer c."""
        return SymCharacter({w: c * v for w, v in self._m.items()})

    def __mul__(self, other: "SymCharacter") -> "SymCharacter":
        if not isinstance(other, SymCharacter):
            return NotImplemented
        # Pair the stored weights orbit by orbit: for u, v > 0,
        # (x^u + x^-u)(x^v + x^-v) is the orbit of u + v plus the orbit of
        # |u - v|, which is 2 at weight 0 when u = v.  The orbit of 0 is 1.
        out: dict[int, int] = {}
        get = out.get
        right = list(other._m.items())
        for u, a in self._m.items():
            for v, b in right:
                ab = a * b
                out[u + v] = get(u + v, 0) + ab
                if u and v:
                    d = u - v if u > v else v - u
                    out[d] = get(d, 0) + (ab if d else ab + ab)
        return SymCharacter(out)

    def __pow__(self, k: int) -> "SymCharacter":
        """The k-fold product, multiplied left to right from the trivial character."""
        if k < 0:
            raise ValueError(f"exponent must be non-negative, got {k}")
        out = SymCharacter({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def scale_weights(self, k: int) -> "SymCharacter":
        """Pull every weight w to k*w, keeping its multiplicity."""
        if k < 1:
            raise ValueError(f"weight scale must be positive, got {k}")
        return SymCharacter({k * w: c for w, c in self._m.items()})

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymCharacter):
            return NotImplemented
        return self._m == other._m

    __hash__ = None  # mutable-dict backed; characters are compared, not hashed

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {self._m[w]}" for w in self.support)
        return f"SymCharacter({{{inner}}})"


class _Partition2Fields(NamedTuple):
    lambda1: int
    lambda2: int


class Partition2(_Partition2Fields):
    """A partition with at most two rows: lambda1 >= lambda2 >= 0.

    A tuple of its two rows, so partitions order row by row."""

    __slots__ = ()

    def __new__(cls, lambda1: int, lambda2: int) -> Partition2:
        if not lambda1 >= lambda2 >= 0:
            raise ValueError(f"need lambda1 >= lambda2 >= 0, got ({lambda1}, {lambda2})")
        return super().__new__(cls, lambda1, lambda2)

    @classmethod
    def _make(cls, iterable) -> Partition2:
        # _replace builds through _make; validate there too.
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return self.lambda1 + self.lambda2

    @property
    def weight(self) -> int:
        """Row difference: the restriction of this highest weight to SL(2)."""
        return self.lambda1 - self.lambda2

    def is_p_regular(self, p: int) -> bool:
        """No part repeated p or more times; only p = 2 can fail on two rows."""
        if prime_char(p) == 2:
            return self.lambda2 == 0 or self.lambda1 > self.lambda2
        return True


def lambda_of(m: int, r: int) -> Partition2:
    """The unique two-row partition of r with row difference m."""
    m, r = operator.index(m), operator.index(r)
    if m < 0 or m > r or (r - m) % 2:
        raise ValueError(f"no two-row partition of {r} has row difference {m}")
    return Partition2((r + m) // 2, (r - m) // 2)


def weight_set(r: int) -> tuple[int, ...]:
    """Positive weights up to r of the same parity as r, descending.

    These are the row differences of the two-row partitions of r with
    distinct rows; there are ceil(r / 2) of them.
    """
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    return tuple(range(r, 0, -2))


def two_row_partitions(r: int) -> tuple[Partition2, ...]:
    """All partitions of r into at most two rows, first row decreasing."""
    if r < 0:
        raise ValueError(f"degree must be non-negative, got {r}")
    return tuple(Partition2(r - b, b) for b in range(r // 2 + 1))
