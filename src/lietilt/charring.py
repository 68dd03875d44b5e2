"""The symmetric character ring of SL(2).

A character is a finitely supported integer multiplicity function on the
weight lattice, symmetric under negation.  All its weights share one parity,
so it is x**top * P(y) with y = x**-2, and it is stored as top and one dense
row: the multiplicities at top, top - 2, ..., top % 2, the negative side
implied.  Memory therefore grows with the top weight, not with the support.
Multiplicities may be negative so that virtual characters (differences of
genuine ones) can be represented; callers that model actual modules check
non-negativity where they need it.

Mixing parities in a sum is a hard error rather than a silent union: it
always indicates that two characters from different degrees were combined by
mistake.  A product is the product of the two polynomials P, through
modarith.convolve, cut at the zero weight.  Other modules build characters
through SymCharacter.from_row, combine them by +, * and scale_weights, and
read them through SymCharacter.row or SymCharacter.poly.  There is no
subtraction or integer scaling: a - b is a + b * SymCharacter.from_row(0, (-1,)).
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple

from .modarith import ConsistencyError, at_least, convolve, prime_char

__all__ = [
    "ConsistencyError",
    "Partition2",
    "SymCharacter",
    "two_row_partitions",
    "weight_set",
]

# Largest top weight scale_weights accepts.  It allocates a row of
# top // 2 + 1 entries from a small input, so the bound is checked before the
# row exists; the CLI never builds a top above 4096.
_TOP_MAX = 2**20


class SymCharacter:
    """An integer weight-multiplicity function, symmetric under negation,
    held as its top weight and row; the row of the zero character is empty."""

    __slots__ = ("_top", "_row")

    def __init__(self) -> None:
        """The zero character."""
        self._top, self._row = None, ()

    @classmethod
    def from_row(cls, top: int, row: Iterable[int]) -> SymCharacter:
        """The character with multiplicity row[j] at the weights +-(top - 2j),
        j = 0 .. top // 2; leading zeros lower the top weight."""
        top, row = operator.index(top), tuple(map(operator.index, row))
        if top < 0 or len(row) != top // 2 + 1:
            raise ValueError(f"need top >= 0 and top // 2 + 1 entries, got top {top} with {len(row)}")
        return _trimmed(top, row)

    # -- queries ---------------------------------------------------------

    @property
    def row(self) -> tuple[int, ...]:
        """Multiplicities at max_weight, max_weight - 2, ..., max_weight % 2."""
        return self._row

    @property
    def poly(self) -> tuple[int, ...]:
        """Multiplicities at max_weight, max_weight - 2, ..., -max_weight: the
        coefficients of P in x**max_weight * P(x**-2); () for the zero character."""
        return self._row + (self._row[::-1] if self.parity else self._row[-2::-1])

    @property
    def support(self) -> tuple[int, ...]:
        """Non-negative weights with nonzero multiplicity, descending; the
        benchmark's trace counts the terms of a product through it."""
        return tuple(self._top - 2 * j for j, c in enumerate(self._row) if c)

    @property
    def max_weight(self) -> int | None:
        return self._top

    @property
    def parity(self) -> int | None:
        return None if self._top is None else self._top & 1

    @property
    def dim(self) -> int:
        """Signed total of all multiplicities, negative weights included."""
        return sum(self.poly)

    @property
    def is_zero(self) -> bool:
        return not self._row

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "SymCharacter") -> "SymCharacter":
        if not isinstance(other, SymCharacter):
            return NotImplemented
        if not self._row or not other._row:
            return self if other.is_zero else other
        if (self._top ^ other._top) & 1:
            raise ValueError("weights of mixed parity in one character")
        # Rows end at the weight of their parity, so they align at the end.
        hi, lo = (self._row, other._row) if self._top >= other._top else (other._row, self._row)
        lead = len(hi) - len(lo)
        return _trimmed(max(self._top, other._top), hi[:lead] + tuple(map(operator.add, hi[lead:], lo)))

    def __mul__(self, other: "SymCharacter") -> "SymCharacter":
        if not isinstance(other, SymCharacter):
            return NotImplemented
        if not self._row or not other._row:
            return SymCharacter()
        top = self._top + other._top
        return _trimmed(top, tuple(convolve(self.poly, other.poly, top // 2 + 1)))

    def scale_weights(self, k: int) -> "SymCharacter":
        """Pull every weight w to k*w, keeping its multiplicity."""
        k = at_least(k, 1, "weight scale")
        if not self._row:
            return self
        top = k * self._top
        if top > _TOP_MAX:
            raise ValueError(f"top weight must not exceed {_TOP_MAX}, got {top}")
        out = [0] * (top // 2 + 1)
        out[::k] = self._row
        return _trimmed(top, tuple(out))

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymCharacter):
            return NotImplemented
        return self._top == other._top and self._row == other._row

    __hash__ = None  # characters are compared, not hashed

    def __repr__(self) -> str:
        return f"SymCharacter.from_row({self._top}, {self._row})" if self._row else "SymCharacter()"


def _trimmed(top: int | None, row: tuple[int, ...]) -> SymCharacter:
    """The character (top, row) with the leading zeros of row dropped, built
    without from_row's checks."""
    k = next((k for k, c in enumerate(row) if c), None)
    chi = object.__new__(SymCharacter)
    chi._top, chi._row = (None, ()) if k is None else (top - 2 * k, row[k:])
    return chi


class _Partition2Fields(NamedTuple):
    lambda1: int
    lambda2: int


class Partition2(_Partition2Fields):
    """A partition with at most two rows: lambda1 >= lambda2 >= 0.

    A tuple of its two rows, so partitions order row by row."""

    __slots__ = ()

    def __new__(cls, lambda1: int, lambda2: int) -> Partition2:
        lambda1, lambda2 = operator.index(lambda1), operator.index(lambda2)
        if not lambda1 >= lambda2 >= 0:
            raise ValueError(f"need lambda1 >= lambda2 >= 0, got ({lambda1}, {lambda2})")
        return super().__new__(cls, lambda1, lambda2)

    @classmethod
    def _make(cls, iterable) -> Partition2:
        # _replace builds through _make; validate there too.
        return cls(*iterable)

    @property
    def weight(self) -> int:
        """Row difference: the restriction of this highest weight to SL(2)."""
        return self.lambda1 - self.lambda2

    def is_p_regular(self, p: int) -> bool:
        """No part repeated p or more times; only p = 2 can fail on two rows."""
        if prime_char(p) == 2:
            return self.lambda2 == 0 or self.lambda1 > self.lambda2
        return True


def weight_set(r: int) -> tuple[int, ...]:
    """Positive weights up to r of the same parity as r, descending.

    These are the row differences of the two-row partitions of r with
    distinct rows; there are ceil(r / 2) of them.
    """
    r = at_least(r, 1, "degree")
    return tuple(range(r, 0, -2))


def two_row_partitions(r: int) -> tuple[Partition2, ...]:
    """All partitions of r into at most two rows, first row decreasing."""
    r = at_least(r, 0, "degree")
    return tuple(Partition2(r - b, b) for b in range(r // 2 + 1))
