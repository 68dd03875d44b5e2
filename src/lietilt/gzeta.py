"""Coefficient-sequence analysis for the near-top summand of a Lie power.

When the characteristic p divides the degree r, the submodule generated by
the top nonzero weight vector of the Lie power reduces, weight space by
weight space, to subset sums of the signed binomial sequence
c_j = (-1)**j * C(r - 1, j) mod p.  Nonzeroness of those subset sums and the
resulting dimension count decide whether that submodule is a full dual Weyl
module, which in turn decides whether the near-top tilting summand occurs.
"""

from __future__ import annotations

from typing import NamedTuple

from .modarith import PrimeChar, binom_mod
from .tiltchar import is_weyl_simple

__all__ = [
    "GZetaProfile",
    "c_sequence",
    "gzeta_dim",
    "gzeta_profile",
    "is_p_power",
    "metabelian_summand",
    "theorem_b_predicate",
    "weight_nonzero",
]


def is_p_power(r: int, p: int) -> bool:
    """Whether r = p**m for some m >= 1."""
    p = PrimeChar(p)
    if r < p:
        return False
    while r % p == 0:
        r //= p
    return r == 1


def _require_divisible(r: int, p: PrimeChar) -> None:
    if r < 1 or r % p:
        raise ValueError(f"degree must be a positive multiple of {int(p)}, got {r}")


def c_sequence(r: int, p: int) -> tuple[int, ...]:
    """The sequence c_j = (-1)**j * C(r - 1, j) mod p for j = 0 .. r - 1.

    Requires p | r.  For r a power of p every entry is 1; in general the
    entries must be computed, not pattern-matched.
    """
    p = PrimeChar(p)
    _require_divisible(r, p)
    sign_odd = p - 1  # -1 mod p
    return tuple(binom_mod(r - 1, j, p) * (sign_odd if j % 2 else 1) % p for j in range(r))


class GZetaProfile(NamedTuple):
    """Per-weight nonzeroness profile of the near-top submodule.

    Two facts about the coefficient sequence decide every weight space:
    whether all c_j are equal, and whether their sum is nonzero mod p.

    A v-element subset sum can vanish for all subsets only if all
    coefficients agree (then every sum is v * c_0, and c_0 = 1) or if v = r
    (a single subset, the full sum, which is the expansion of (1 - 1)**(r - 1)
    and always vanishes exactly when r >= 2).  Swapping two unequal
    coefficients changes some subset sum, so in every other situation some
    sum is nonzero.
    """

    r: int
    p: int
    all_equal: bool
    total_nonzero: bool

    def weight_space_nonzero(self, v: int) -> bool:
        """Whether the weight space indexed by v (weight r - 2v) is nonzero."""
        if not 1 <= v <= self.r:
            raise ValueError(f"need 1 <= v <= {self.r}, got {v}")
        if v == self.r:
            return self.total_nonzero
        return not self.all_equal or v % self.p != 0

    @property
    def dim(self) -> int:
        """Number of nonzero weight spaces for v = 1 .. r."""
        return (self.r - self.r // self.p if self.all_equal else self.r - 1) + self.total_nonzero

    @property
    def is_p_power(self) -> bool:
        return is_p_power(self.r, self.p)

    @property
    def near_top_summand(self) -> bool:
        """Whether the near-top submodule has full dimension r - 1, or r = p,
        where the summand is known directly."""
        return self.r == self.p or self.dim == self.r - 1


def gzeta_profile(r: int, p: int) -> GZetaProfile:
    """Analyse every weight space of the near-top submodule at once."""
    p = PrimeChar(p)
    cs = c_sequence(r, p)
    return GZetaProfile(r, int(p), len(set(cs)) == 1, sum(cs) % p != 0)


def weight_nonzero(r: int, p: int, v: int) -> bool:
    """Whether some v-element subset of the coefficient sequence has sum
    nonzero mod p; requires p | r and 1 <= v <= r."""
    return gzeta_profile(r, p).weight_space_nonzero(v)


def gzeta_dim(r: int, p: int) -> int:
    """Number of nonzero weight spaces of the near-top submodule.

    Equals r - 1 when r is not a power of p, and p**m - p**(m-1) when
    r = p**m.
    """
    return gzeta_profile(r, p).dim


def theorem_b_predicate(r: int, p: int) -> bool:
    """Whether the tilting summand with highest weight (r - 1, 1) occurs in
    the degree-r Lie power.

    Immediate when p does not divide r; otherwise decided by whether the
    near-top submodule has full dimension r - 1 (or r = p, where the
    summand is known directly).
    """
    p = PrimeChar(p)
    if r < 2:
        raise ValueError(f"degree must be at least 2, got {r}")
    if r % p:
        return True
    return gzeta_profile(r, p).near_top_summand


def metabelian_summand(r: int, p: int) -> bool:
    """Whether the metabelian quotient, the dual Weyl module of highest
    weight (r - 1, 1), splits off the degree-r free Lie power.

    For r not a power of p this holds exactly when r = 2 or r - 2 is a
    weight where Weyl and simple coincide.  Powers of p are settled only in
    three cases: r = p (yes), and in characteristic 2 the degrees 4 (yes)
    and 8 (no); other prime-power degrees are rejected as undecided.
    """
    p = PrimeChar(p)
    if r < 2:
        raise ValueError(f"degree must be at least 2, got {r}")
    if is_p_power(r, p):
        if r == int(p):
            return True
        if int(p) == 2 and r == 4:
            return True
        if int(p) == 2 and r == 8:
            return False
        raise ValueError(f"undecided for degree {r} = {int(p)}**m with m >= 2")
    return r == 2 or is_weyl_simple(r - 2, p)
