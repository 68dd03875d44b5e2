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

import operator
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .charring import ConsistencyError, SymCharacter, weight_set
from .modarith import at_least, prime_char

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
    "tilting_bands",
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
    m = at_least(m, 0, "highest weight")
    return SymCharacter.from_row(m, (1,) * (m // 2 + 1))


def char_simple(m: int, p: int) -> SymCharacter:
    """Character of the simple module of highest weight m.

    Product over the base-p digits d_i of m of the Weyl character of d_i
    with weights dilated by p**i; its dimension is the product of d_i + 1.
    """
    p = prime_char(p)
    m = at_least(m, 0, "highest weight")
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
    p = prime_char(p)
    m = at_least(m, 0, "highest weight")
    u = m + 1
    while u % p == 0:
        u //= p
    return u < p


@lru_cache(maxsize=None, typed=True)
def tilting_weyl_factors(m: int, p: int) -> tuple[int, ...]:
    """Highest weights of the Weyl factors of the tilting module T(m),
    descending and distinct: T(m) has a multiplicity-free Weyl filtration.

    For m <= p - 1, T(m) is the Weyl module.  Otherwise write
    m - (p - 1) = a + p*b with 0 <= a <= p - 1; Donkin's tensor product
    theorem (Math. Z. 212, 1993) gives T(m) = T(b)^[F] (x) T(p - 1 + a), and
    each factor n of T(b) contributes p*n + p - 1 + a and p*n + p - 1 - a
    (one factor, p*n + p - 1, when a = 0).

    Memoized per (m, p) as a tuple, so no caller can change the table; the
    key includes the argument types, so m = 6.0 or p = 2.0 is refused even
    once (6, 2) is cached, and a cache hit repeats no check.
    """
    p = prime_char(p)
    m = at_least(m, 0, "highest weight")
    if m <= p - 1:
        return (m,)
    b, a = divmod(m - (p - 1), p)
    shifts = (a, -a) if a else (0,)
    return tuple(p * n + p - 1 + s for n in tilting_weyl_factors(b, p) for s in shifts)


def tilting_bands(m: int, p: int) -> Iterator[tuple[int, int, int]]:
    """(k, top, bottom) for the k-th Weyl factor of T(m), k = 1, 2, ...:
    T(m) has multiplicity k at the weights top, top - 2, ..., bottom.

    The multiplicity at w is the number of Weyl factors at or above w, so a
    band runs from the k-th factor down to just above the next one, and the
    last band down to 0 or 1.
    """
    factors = tilting_weyl_factors(m, p)
    bottoms = [n + 2 for n in factors[1:]] + [m % 2]
    return ((k, top, bottom) for k, (top, bottom) in enumerate(zip(factors, bottoms), 1))


def char_tilting(m: int, p: int) -> SymCharacter:
    """Character of the indecomposable tilting module of highest weight m:
    the sum of the Weyl characters at its tilting_weyl_factors.

    Built afresh on each call, with no products; decompose reads the factor
    lists and never builds this character.
    """
    return SymCharacter.from_row(m, [k for k, top, bottom in tilting_bands(m, p) for _ in range(top, bottom - 2, -2)])


def basis_char(basis: Basis | str, m: int, p: int) -> SymCharacter:
    """The member of the given basis with highest weight m; the basis may be
    given by its name, and an unknown name raises ValueError."""
    basis = Basis(basis)
    p = prime_char(p)
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

    Entries map highest weights to nonzero signed coefficients, by
    descending weight.  They are held in a read-only view, so a caller that
    keeps a decomposition cannot change what another holder of it reads.
    The basis may be given by its name, and it is stored as a Basis member;
    r and p are checked as decompose checks them.  Every weight and
    coefficient must be an integer (TypeError otherwise); a zero
    coefficient, or a weight outside 0..r or of the other parity than r,
    raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, basis: Basis | str, entries: Mapping[int, int], r: int, p: int) -> Decomposition:
        basis, r, p = Basis(basis), at_least(r, 1, "degree"), prime_char(p)
        pairs = [(operator.index(w), operator.index(c)) for w, c in dict(entries).items()]
        entries = dict(sorted(pairs, reverse=True))  # the weights are distinct, so no coefficient is compared
        for w, c in entries.items():
            if not c:
                raise ValueError(f"zero coefficient at weight {w}")
            if not 0 <= w <= r or (r - w) % 2:
                raise ValueError(f"weight {w} is outside 0..{r} or not of the parity of r={r}")
        return super().__new__(cls, basis, MappingProxyType(entries), r, p)

    @classmethod
    def _make(cls, iterable) -> Decomposition:
        # _replace builds through _make; copy and check the fields there too.
        return cls(*iterable)

    def coefficient(self, m: int) -> int:
        return self.entries.get(m, 0)

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.entries.values())

    @property
    def dimension(self) -> int:
        """Signed dimension: sum of coefficient times basis-member dimension."""
        return sum(c * basis_char(self.basis, m, self.p).dim for m, c in self.entries.items())


def _weyl_row(chi: SymCharacter, r: int) -> list[int]:
    """chi as a sum of Weyl characters at the weights w = r % 2, ..., r - 2, r,
    as a list indexed by w // 2: the Weyl character at w has multiplicity one
    at w, w - 2, ..., so its coefficient is mult(w) - mult(w + 2).  chi's row,
    reversed and padded with zeros up to weight r + 2, is indexed by w // 2."""
    mults = chi.row[::-1] + (0,) * (r // 2 + 2 - len(chi.row))
    return [a - b for a, b in zip(mults, mults[1:])]


def decompose(chi: SymCharacter, basis: Basis | str, r: int, p: int) -> Decomposition:
    """Coefficients of chi in the given basis, by greedy top-down elimination.

    Exact for any basis that is monic at the top with support bounded by the
    highest weight; coefficients come out signed.  The character must have
    the parity of r and support inside [-r, r].  The basis may be given by
    its name; an unknown name raises ValueError.

    One differencing pass puts chi in Weyl coordinates, a list indexed by
    w // 2, and each elimination step subtracts one basis member in the same
    coordinates: a single Weyl factor, the Weyl factors of one tilting
    module, or a differenced simple character.  The Weyl and tilting bases
    multiply no characters.
    """
    basis = Basis(basis)
    p = prime_char(p)
    r = at_least(r, 1, "degree")
    if not chi.is_zero:
        if chi.parity != r % 2:
            raise ValueError("character parity does not match the degree")
        if chi.max_weight > r:
            raise ValueError("character support exceeds the degree")
    residual = _weyl_row(chi, r)
    entries: dict[int, int] = {}
    for i in range(r // 2, -1, -1):
        c = residual[i]
        if not c:
            continue
        w = 2 * i + r % 2
        entries[w] = c
        if basis is Basis.SIMPLE:
            for j, k in enumerate(_weyl_row(char_simple(w, p), w)):
                residual[j] -= c * k
        else:
            for u in tilting_weyl_factors(w, p) if basis is Basis.TILTING else (w,):
                residual[u // 2] -= c
    return Decomposition(basis, entries, r, p)


def natural_power_char(r: int) -> SymCharacter:
    """Character of the r-fold tensor power of the natural two-dimensional
    character: binomial weight multiplicities with total 2**r."""
    r = at_least(r, 1, "tensor degree")
    out = delta = char_weyl(1)
    for _ in range(r - 1):
        out = out * delta
    return out


def tensor_power_decomp(r: int, p: int) -> Decomposition:
    """Tilting multiplicities of the r-fold tensor power of the natural
    character; strictly positive on every positive weight of r's parity."""
    p, r = prime_char(p), operator.index(r)
    dec = decompose(natural_power_char(r), Basis.TILTING, r, p)
    # The tensor power is an actual tilting module, so the multiplicities are
    # genuine and every positive weight of matching parity must occur.
    if not dec.is_nonnegative or any(dec.coefficient(m) <= 0 for m in weight_set(r)):
        w = next(m for m in range(r, -1, -2) if dec.coefficient(m) < (m > 0))  # a positive weight needs 1 or more
        raise ConsistencyError(f"tensor power decomposition violated positivity at r={r}, p={p}: "
                               f"weight {w} has coefficient {dec.coefficient(w)}")
    return dec


def weyl_twist_identity(n: int, i: int, p: int) -> bool:
    """Check the two-step filtration identity for a Weyl character at p*n + i.

    With j = p - 2 - i, the Weyl character at p*n + i must equal the
    weight-dilated Weyl character at n - 1 times the simple character at j
    plus the weight-dilated Weyl character at n times the simple character
    at i.  Returns whether the identity holds exactly.
    """
    p = prime_char(p)
    n, i = at_least(n, 1, "n"), operator.index(i)
    if not 0 <= i <= p - 2:
        raise ValueError(f"need 0 <= i <= p - 2, got {i}")
    j = p - 2 - i
    lhs = char_weyl(p * n + i)
    rhs = char_weyl(n - 1).scale_weights(p) * char_simple(j, p) + char_weyl(n).scale_weights(p) * char_simple(i, p)
    return lhs == rhs
