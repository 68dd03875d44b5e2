"""Weyl, simple, and tilting characters of SL(2) in characteristic p.

All three families are indexed by a highest weight m >= 0 and are monic at
the top: the multiplicity at weight m is 1 and the support lies in [-m, m].
That makes conversion between them unitriangular, so any symmetric character
decomposes uniquely in each family by peeling coefficients from the top
weight downward.  Coefficients of virtual characters may be negative; a
negative coefficient in a decomposition that should describe an actual
module is a certificate that no such module decomposition exists.

Decompositions run in Weyl coordinates, where the Weyl character at w is a
single coordinate.  T(m) has a multiplicity-free filtration by Weyl modules,
and tilting_weyl_factors lists their highest weights: typically tens of them,
against the m/2 or so weights of T(m), so the Weyl and tilting decompositions
multiply no characters.  A simple character is differenced into the same
coordinates, so all three bases share one elimination.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .charring import ConsistencyError, SymCharacter, weight_set
from .modarith import PrimeChar

__all__ = [
    "Basis",
    "Decomposition",
    "basis_char",
    "char_simple",
    "char_tilting",
    "char_weyl",
    "decompose",
    "is_weyl_simple",
    "natural_power_char",
    "tensor_power_decomp",
    "tilting_multiplicities",
    "tilting_weyl_factors",
    "weyl_twist_identity",
]


class Basis(str, Enum):
    """The three highest-weight bases of the character ring."""

    DELTA = "delta"
    SIMPLE = "simple"
    TILTING = "tilting"


def char_weyl(m: int) -> SymCharacter:
    """Weyl character of highest weight m: weights m, m - 2, ..., -m, all once."""
    if m < 0:
        raise ValueError(f"highest weight must be non-negative, got {m}")
    return SymCharacter({w: 1 for w in range(m, -1, -2)})


def char_simple(m: int, p: int) -> SymCharacter:
    """Character of the simple module of highest weight m.

    Product over the base-p digits d_i of m of the Weyl character of d_i
    with weights dilated by p**i; its dimension is the product of d_i + 1.
    """
    p = PrimeChar(p)
    if m < 0:
        raise ValueError(f"highest weight must be non-negative, got {m}")
    out = char_weyl(0)
    q = 1
    while m:
        m, d = divmod(m, p)
        if d:
            out = out * char_weyl(d).scale_weights(q)
        q *= p
    return out


def is_weyl_simple(m: int, p: int) -> bool:
    """Whether the Weyl, simple, and tilting characters at m all coincide.

    True exactly for m = 0 and for m = a * p**k - 1 with 2 <= a <= p; in
    digit terms, m + 1 with the p-part stripped must be below p.
    """
    p = PrimeChar(p)
    if m < 0:
        raise ValueError(f"highest weight must be non-negative, got {m}")
    u = m + 1
    while u % p == 0:
        u //= p
    return u < p


@lru_cache(maxsize=None)
def tilting_weyl_factors(m: int, p: int) -> tuple[int, ...]:
    """Highest weights of the Weyl factors of the tilting module T(m),
    descending and distinct: T(m) has a multiplicity-free Weyl filtration.

    For m <= p - 1, T(m) is the Weyl module.  Otherwise write
    m - (p - 1) = a + p*b with 0 <= a <= p - 1; Donkin's tensor product
    theorem (Math. Z. 212, 1993) gives T(m) = T(b)^[F] (x) T(p - 1 + a), and
    each factor n of T(b) contributes p*n + p - 1 + a and p*n + p - 1 - a
    (one factor, p*n + p - 1, when a = 0).

    Memoized per (m, p) as a tuple, so no caller can change the table.
    """
    p = PrimeChar(p)
    if m < 0:
        raise ValueError(f"highest weight must be non-negative, got {m}")
    if m <= p - 1:
        return (m,)
    b, a = divmod(m - (p - 1), int(p))
    shifts = (a, -a) if a else (0,)
    return tuple(p * n + p - 1 + s for n in tilting_weyl_factors(b, p) for s in shifts)


def tilting_multiplicities(m: int, p: int) -> Iterator[tuple[int, int]]:
    """(weight, multiplicity) over the non-negative weights of T(m), descending.

    The multiplicity at w is the number of Weyl factors at or above w: it is
    k from the k-th factor down to just above the next one.
    """
    factors = tilting_weyl_factors(m, p)
    bands = enumerate(zip(factors, factors[1:] + (m % 2 - 2,)), 1)
    return ((w, k) for k, (top, below) in bands for w in range(top, below, -2))


def char_tilting(m: int, p: int) -> SymCharacter:
    """Character of the indecomposable tilting module of highest weight m:
    the sum of the Weyl characters at its tilting_weyl_factors.

    Built afresh on each call, with no products; decompose reads the factor
    lists and never builds this character.
    """
    return SymCharacter(dict(tilting_multiplicities(m, p)))


def basis_char(basis: Basis | str, m: int, p: int) -> SymCharacter:
    """The member of the given basis with highest weight m; the basis may be
    given by its name, and an unknown name raises ValueError."""
    basis = Basis(basis)
    if basis is Basis.DELTA:
        return char_weyl(m)
    if basis is Basis.SIMPLE:
        return char_simple(m, p)
    return char_tilting(m, p)


class _DecompositionFields(NamedTuple):
    basis: Basis
    entries: Mapping[int, int]
    r: int
    p: int


class Decomposition(_DecompositionFields):
    """Signed multiplicities of a degree-r character in a highest-weight basis.

    Entries map highest weights to nonzero signed coefficients.  They are
    held in a read-only view, so a caller that keeps a decomposition cannot
    change what another holder of it reads.
    """

    __slots__ = ()

    def __new__(cls, basis: Basis, entries: Mapping[int, int], r: int, p: int) -> Decomposition:
        return super().__new__(cls, basis, MappingProxyType(dict(entries)), r, p)

    @classmethod
    def _make(cls, iterable) -> Decomposition:
        # _replace builds through _make; copy the entries there too.
        return cls(*iterable)

    def coefficient(self, m: int) -> int:
        return self.entries.get(m, 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries, reverse=True))

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.entries.values())

    def reconstruct(self) -> SymCharacter:
        """Sum the basis characters back up; exact inverse of decompose."""
        out = SymCharacter()
        for m in self.support:
            out = out + basis_char(self.basis, m, self.p).scale(self.entries[m])
        return out

    @property
    def dimension(self) -> int:
        """Signed dimension: sum of coefficient times basis-member dimension."""
        return sum(c * basis_char(self.basis, m, self.p).dim for m, c in self.entries.items())


def _weyl_coordinates(chi: SymCharacter, r: int) -> dict[int, int]:
    """chi as a sum of Weyl characters at r, r - 2, ..., >= 0: the Weyl character
    at w has multiplicity one at w, w - 2, ..., so its coefficient is
    mult(w) - mult(w + 2)."""
    return {w: chi.multiplicity(w) - chi.multiplicity(w + 2) for w in range(r, -1, -2)}


def _member_row(basis: Basis, m: int, p: PrimeChar) -> Iterable[tuple[int, int]]:
    """The basis member at m in Weyl coordinates, as (weight, coefficient) pairs."""
    if basis is Basis.DELTA:
        return ((m, 1),)
    if basis is Basis.TILTING:
        return ((k, 1) for k in tilting_weyl_factors(m, p))
    return _weyl_coordinates(char_simple(m, p), m).items()


def decompose(chi: SymCharacter, basis: Basis | str, r: int, p: int) -> Decomposition:
    """Coefficients of chi in the given basis, by greedy top-down elimination.

    Exact for any basis that is monic at the top with support bounded by the
    highest weight; coefficients come out signed.  The character must have
    the parity of r and support inside [-r, r].  The basis may be given by
    its name; an unknown name raises ValueError.

    One differencing pass puts chi in Weyl coordinates, and each elimination
    step subtracts one basis member in the same coordinates: a single Weyl
    factor, the Weyl factors of one tilting module, or a differenced simple
    character.  The Weyl and tilting bases multiply no characters.
    """
    basis = Basis(basis)
    p = PrimeChar(p)
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    if not chi.is_zero:
        if chi.parity != r % 2:
            raise ValueError("character parity does not match the degree")
        if chi.max_weight > r:
            raise ValueError("character support exceeds the degree")
    residual = _weyl_coordinates(chi, r)
    entries: dict[int, int] = {}
    for w in range(r, -1, -2):
        c = residual[w]
        if not c:
            continue
        entries[w] = c
        for u, k in _member_row(basis, w, p):
            residual[u] -= c * k
    return Decomposition(basis, entries, r, int(p))


def natural_power_char(r: int) -> SymCharacter:
    """Character of the r-fold tensor power of the natural two-dimensional
    character: binomial weight multiplicities with total 2**r."""
    if r < 1:
        raise ValueError(f"tensor degree must be positive, got {r}")
    return char_weyl(1) ** r


def tensor_power_decomp(r: int, p: int) -> Decomposition:
    """Tilting multiplicities of the r-fold tensor power of the natural
    character; strictly positive on every positive weight of r's parity."""
    p = PrimeChar(p)
    dec = decompose(natural_power_char(r), Basis.TILTING, r, p)
    # The tensor power is an actual tilting module, so the multiplicities are
    # genuine and every positive weight of matching parity must occur.
    if not dec.is_nonnegative or any(dec.coefficient(m) <= 0 for m in weight_set(r)):
        raise ConsistencyError(f"tensor power decomposition violated positivity at r={r}, p={int(p)}")
    return dec


def weyl_twist_identity(n: int, i: int, p: int) -> bool:
    """Check the two-step filtration identity for a Weyl character at p*n + i.

    With j = p - 2 - i, the Weyl character at p*n + i must equal the
    weight-dilated Weyl character at n - 1 times the simple character at j
    plus the weight-dilated Weyl character at n times the simple character
    at i.  Returns whether the identity holds exactly.
    """
    p = PrimeChar(p)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= i <= p - 2:
        raise ValueError(f"need 0 <= i <= p - 2, got {i}")
    j = p - 2 - i
    lhs = char_weyl(int(p) * n + i)
    rhs = char_weyl(n - 1).scale_weights(p) * char_simple(j, p) + char_weyl(n).scale_weights(p) * char_simple(i, p)
    return lhs == rhs
