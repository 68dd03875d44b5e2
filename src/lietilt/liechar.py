"""Characters of Lie powers and their tilting analysis.

The degree-r component of a free Lie algebra has a Lyndon-word basis, so its
weight multiplicities do not depend on the ground field: they are Witt
counts.  On top of that this module implements the characteristic-2
bidegree splitting of a Lie power into smaller Lie powers of Weyl-character
products (the Stohr summands), the tilting decomposition of a Lie power
character with its three-way verdict, and a character-certified lower bound
for tilting multiplicities.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .charring import ConsistencyError, Partition2, SymCharacter, weight_set
from .modarith import PrimeChar, divisors, mobius, poly_power_row, witt_bidegree
from .tiltchar import Basis, Decomposition, char_weyl, decompose, tensor_power_decomp

__all__ = [
    "LieDecompReport",
    "StohrSummand",
    "Verdict",
    "char_lie_power",
    "l4_weyl2_composition_factors",
    "lie_power_char",
    "lie_tilting_decomp",
    "stohr_pairs",
    "stohr_summand",
    "stohr_tilting_decomp",
    "tilting_multiplicity_lower_bound",
]


def char_lie_power(r: int) -> SymCharacter:
    """Weight multiplicities of the degree-r Lie component on two letters.

    The multiplicity at weight r - 2i counts the Lyndon words of length r
    with i second letters, (1/r) * sum over d | gcd(r, i) of
    mobius(d) * C(r/d, i/d); the total dimension is the Witt necklace count
    (1/r) * sum over d | r of mobius(d) * 2**(r/d).  Each d adds its binomial
    row C(r/d, k) at i = k*d, and the division by r is exact and checked.
    """
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    half = r // 2
    acc = [0] * (half + 1)
    for d in divisors(r):
        mu = mobius(d)
        if mu:
            row = poly_power_row((1, 1), r // d, half // d + 1)
            acc[::d] = [a + mu * c for a, c in zip(acc[::d], row)]
    vals: dict[int, int] = {}
    for i, a in enumerate(acc):
        q, rem = divmod(a, r)
        if rem:
            raise ConsistencyError(f"necklace sum not divisible by {r} at weight {r - 2 * i}")
        vals[r - 2 * i] = q
    return SymCharacter(vals)


def lie_power_char(chi: SymCharacter, r: int) -> SymCharacter:
    """Character of the degree-r free Lie component on a module with character chi.

    Moebius-weighted necklace sum over the weight-dilated powers of chi.
    Valid in every characteristic because the Lyndon basis is integral; the
    division by r is exact and checked.
    """
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    acc = SymCharacter()
    for d in divisors(r):
        mu = mobius(d)
        if mu:
            acc = acc + (chi.scale_weights(d) ** (r // d)).scale(mu)
    vals: dict[int, int] = {}
    for w in acc.support:
        q, rem = divmod(acc.multiplicity(w), r)
        if rem:
            raise ConsistencyError(f"necklace sum not divisible by {r} at weight {w}")
        vals[w] = q
    return SymCharacter(vals)


class StohrSummand(NamedTuple):
    """One bidegree piece of the characteristic-2 splitting of a Lie power:
    s three-dimensional and t two-dimensional Weyl factors, with the Witt
    multiplicity of that bidegree."""

    s: int
    t: int
    mult: int
    character: SymCharacter

    @property
    def degree(self) -> int:
        """Polynomial degree 2s + 3t of the underlying GL(2) module."""
        return 2 * self.s + 3 * self.t


def stohr_summand(s: int, t: int) -> StohrSummand:
    """Build the bidegree-(s, t) summand: s factors of the three-dimensional
    and t factors of the two-dimensional Weyl character.

    With y = x**-2 the product is x**(2s + t) * Q(y), Q = (1 + y + y**2)**s *
    (1 + y)**t, so the multiplicity at weight 2s + t - 2j is the coefficient
    q_j of y**j in Q.  Q solves D*Q' = N*Q with D = 1 + 2y + 2y**2 + y**3 and
    N = (s + t) + (3s + t)*y + (2s + t)*y**2, so q_0 = 1 and
    k*q_k = sum over i = 0 .. 2 of N_i*q_{k-1-i} - sum over i = 1 .. 3 of
    D_i*(k - i)*q_{k-i}: three small-by-big products per coefficient.  Each
    division by k is exact, and checked.
    """
    if s < 1 or t < 1:
        raise ValueError(f"need s, t >= 1, got ({s}, {t})")
    top = 2 * s + t
    n0, n1, n2 = s + t, 3 * s + t, 2 * s + t
    mults = [1]
    q1, q2, q3 = 1, 0, 0  # q_{k-1}, q_{k-2}, q_{k-3}, zero below q_0
    for k in range(1, top // 2 + 1):
        acc = (n0 - 2 * (k - 1)) * q1 + (n1 - 2 * (k - 2)) * q2 + (n2 - (k - 3)) * q3
        q, rem = divmod(acc, k)
        if rem:
            raise ConsistencyError(f"coefficient {k} of the bidegree ({s}, {t}) row is not an integer: {acc}/{k}")
        mults.append(q)
        q1, q2, q3 = q, q1, q2
    chi = SymCharacter({top - 2 * j: m for j, m in enumerate(mults)})
    return StohrSummand(s, t, witt_bidegree(s, t), chi)


def stohr_pairs(r: int) -> list[StohrSummand]:
    """The depth-one summands of the characteristic-2 splitting in degree r:
    all (s, t) with s, t >= 1 and 2s + 3t = r, by increasing t.

    Empty when no solution exists (r = 4 and r = 6); degrees below 4 are
    rejected because the splitting starts there.
    """
    if r <= 3:
        raise ValueError(f"the bidegree splitting needs degree >= 4, got {r}")
    return [stohr_summand((r - 3 * t) // 2, t) for t in range(2 - r % 2, (r - 2) // 3 + 1, 2)]


def stohr_tilting_decomp(x: StohrSummand) -> Decomposition:
    """Tilting multiplicities of one bidegree summand in characteristic 2.

    The coefficients must be non-negative with positive support exactly the
    positive weights of parity 2s + t up to 2s + t; any other pattern is an
    internal inconsistency.
    """
    dec = decompose(x.character, Basis.TILTING, x.degree, 2)
    expected = set(weight_set(2 * x.s + x.t))
    if not dec.is_nonnegative or set(dec.entries) != expected:
        raise ConsistencyError(f"support pattern violated for bidegree ({x.s}, {x.t})")
    return dec


def tilting_multiplicity_lower_bound(lam: Partition2, r: int) -> int:
    """Character-certified lower bound on the multiplicity of the tilting
    summand labelled by lam inside the degree-r Lie power, characteristic 2.

    Sums, over the bidegree pairs (s, t) of degree r whose t reaches the row
    difference of lam, the Witt multiplicity of the pair times the tilting
    coefficient of that row difference in the t-fold tensor power.
    """
    if lam.degree != r:
        raise ValueError(f"partition {lam} is not of degree {r}")
    if not lam.is_p_regular(2):
        raise ValueError(f"partition {lam} has a repeated row")
    m = lam.weight
    if r <= 3:
        return 0
    total = 0
    for x in stohr_pairs(r):
        if 0 < m <= x.t:
            total += x.mult * tensor_power_decomp(x.t, 2).coefficient(m)
    return total


class Verdict(str, Enum):
    """Outcome of a tilting analysis of a Lie power character."""

    TILTING = "tilting"
    NOT_TILTING_CERTIFIED = "not-tilting-certified"
    INCONCLUSIVE = "inconclusive"


class LieDecompReport(NamedTuple):
    """A Lie power character with its tilting-basis content and verdict."""

    r: int
    p: int
    character: SymCharacter
    decomposition: Decomposition
    verdict: Verdict


def lie_tilting_decomp(r: int, p: int) -> LieDecompReport:
    """Tilting-basis content of the degree-r Lie power character.

    When p does not divide r the Lie power is known to be tilting, so the
    coefficients are genuine multiplicities; a negative one would be an
    internal error.  When p divides r, a negative coefficient certifies that
    the Lie power is not tilting, while an all-non-negative answer decides
    nothing by itself.
    """
    p = PrimeChar(p)
    chi = char_lie_power(r)
    dec = decompose(chi, Basis.TILTING, r, p)
    if r % p:
        if not dec.is_nonnegative:
            raise ConsistencyError(f"negative tilting multiplicity at r={r}, p={int(p)} with p not dividing r")
        verdict = Verdict.TILTING
    elif not dec.is_nonnegative:
        verdict = Verdict.NOT_TILTING_CERTIFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    return LieDecompReport(r, int(p), chi, dec, verdict)


def l4_weyl2_composition_factors() -> Decomposition:
    """Simple-basis content of the fourth Lie power of the three-dimensional
    Weyl character in characteristic 2.

    The 18-dimensional character decomposes with simple multiplicities
    {6: 1, 4: 2, 2: 3, 0: 4}; any deviation signals a defect in the necklace
    or basis machinery, so the result is verified before it is returned.
    """
    chi = lie_power_char(char_weyl(2), 4)
    dec = decompose(chi, Basis.SIMPLE, 8, 2)
    if dec.entries != {6: 1, 4: 2, 2: 3, 0: 4}:
        raise ConsistencyError("unexpected composition factors for the rank-3 fourth Lie power")
    return dec
