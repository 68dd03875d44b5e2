"""Coefficient-sequence analysis for the near-top summand of a Lie power.

When the characteristic p divides the degree r, the submodule generated by
the top nonzero weight vector of the Lie power reduces, weight space by
weight space, to subset sums of the signed binomial sequence
c_j = (-1)**j * C(r - 1, j) mod p.  Nonzeroness of those subset sums and the
resulting dimension count decide whether that submodule is a full dual Weyl
module, which in turn decides whether the near-top tilting summand occurs.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple

from .modarith import at_least, prime_char
from .tiltchar import is_weyl_simple

__all__ = [
    "GZetaProfile",
    "gzeta_profile",
    "is_p_power",
    "metabelian_summand",
    "theorem_b_predicate",
]


def is_p_power(r: int, p: int) -> bool:
    """Whether r = p**m for some m >= 1."""
    p = prime_char(p)
    r = operator.index(r)
    if r < p:
        return False
    while r % p == 0:
        r //= p
    return r == 1


def _signed_digit_rows(r: int, p: int) -> Iterator[list[int]]:
    """The signed rows (-1)**k * C(n_i, k) mod p, k = 0 .. n_i, of the base-p
    digits n_i of n = r - 1, lowest digit first; every row but the top one is
    padded with zeros to length p.

    Each row is made by s_k = s_(k-1) * (k - 1 - n_i) / k in GF(p) from
    s_0 = 1.  For the digit p - 1, the lowest of r - 1 for every r that p
    divides, each factor (k - p) / k is 1 mod p, so that row comes out all
    ones.  Expects p prime.  An r that is not a positive multiple of p is
    refused when the first row is asked for.
    """
    if r < 1 or r % p:
        raise ValueError(f"degree must be a positive multiple of {p}, got {r}")
    n = r - 1
    while n:
        n, nd = divmod(n, p)
        row = [1]
        for k in range(1, nd + 1):  # the entry at k - 1, times -(nd - k + 1) / k; k < p is a unit
            row.append(row[-1] * (k - 1 - nd) * pow(k, -1, p) % p)
        yield row + [0] * (p - 1 - nd) if n else row


class GZetaProfile(NamedTuple):
    """Per-weight nonzeroness profile of the near-top submodule.

    One fact about the coefficient sequence decides every weight space:
    whether all c_j are equal.

    A v-element subset sum can vanish for all subsets only if all
    coefficients agree (then every sum is v * c_0, and c_0 = 1) or if v = r
    (a single subset, the full sum, which is the expansion of (1 - 1)**(r - 1)
    and always vanishes exactly when r >= 2).  Swapping two unequal
    coefficients changes some subset sum, so in every other situation some
    sum is nonzero.  Every valid r is a multiple of p >= 2, so the full sum
    always vanishes and the weight space v = r is always zero.

    Whether all c_j are equal is read off the signed digit rows of r - 1,
    without building the sequence, by Lucas's theorem:

    1. C(r - 1, j) = prod C(n_i, j_i) mod p over the base-p digits n_i of
       r - 1 and j_i of j, and (-1)**j = prod (-1)**j_i mod p (p**i is odd
       for odd p, and -1 = 1 mod 2).  So c is the Kronecker product of the
       rows (-1)**k * C(n_i, k) mod p, top digit first, all but the top row
       padded with zeros to length p, cut to r entries.
    2. Every row starts with 1, so the entry at j = k * p**i is the k-th
       entry of row i, and the product is constant iff each factor is
       constant, that is all ones.
    3. A padding zero of a non-top digit n_i < p - 1 sits at
       j = (n_i + 1) * p**i < r, so the cut never hides one; the top row is
       unpadded and lies wholly below the cut.
    """

    r: int
    p: int
    all_equal: bool

    def weight_space_nonzero(self, v: int) -> bool:
        """Whether the weight space indexed by v (weight r - 2v) is nonzero,
        that is whether some v-element subset of c has sum nonzero mod p."""
        v = operator.index(v)
        if not 1 <= v <= self.r:
            raise ValueError(f"need 1 <= v <= {self.r}, got {v}")
        if v == self.r:  # the full sum, (1 - 1)**(r - 1) mod p
            return False
        return not self.all_equal or v % self.p != 0

    @property
    def dim(self) -> int:
        """Number of nonzero weight spaces for v = 1 .. r: p**m - p**(m-1)
        when r = p**m, and r - 1 otherwise."""
        return self.r - self.r // self.p if self.all_equal else self.r - 1

    @property
    def near_top_summand(self) -> bool:
        """Whether the near-top submodule has full dimension r - 1."""
        return self.dim == self.r - 1


def gzeta_profile(r: int, p: int) -> GZetaProfile:
    """Analyse every weight space of the near-top submodule at once.

    Requires p | r.  The sequence c is constant iff every signed digit row of
    r - 1 is all ones (the argument is in GZetaProfile): the rows are walked
    from the lowest digit up, and the walk stops at the first row that is
    not.  That costs O(p * log_p r) per degree and never builds c.
    """
    p = prime_char(p)
    r = operator.index(r)
    return GZetaProfile(r, p, all(set(row) == {1} for row in _signed_digit_rows(r, p)))


def theorem_b_predicate(r: int, p: int) -> bool:
    """Whether the tilting summand with highest weight (r - 1, 1) occurs in
    the degree-r Lie power.

    Immediate when p does not divide r; otherwise decided by whether the
    near-top submodule has full dimension r - 1.
    """
    p = prime_char(p)
    r = at_least(r, 2, "degree")
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
    p = prime_char(p)
    r = at_least(r, 2, "degree")
    if is_p_power(r, p):
        if r == p:
            return True
        if p == 2 and r == 4:
            return True
        if p == 2 and r == 8:
            return False
        raise ValueError(f"undecided for degree {r} = {p}**m with m >= 2")
    return r == 2 or is_weyl_simple(r - 2, p)
