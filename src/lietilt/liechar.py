"""Characters of Lie powers and their tilting analysis.

The degree-r component of a free Lie algebra has a Lyndon-word basis, so its
weight multiplicities do not depend on the ground field: they are Witt
counts.  On top of that this module implements the characteristic-2
bidegree splitting of a Lie power into smaller Lie powers of Weyl-character
products (the Stohr summands), and the tilting decomposition of a Lie power
character with its three-way verdict.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import NamedTuple

from .charring import ConsistencyError, SymCharacter, weight_set
from .modarith import at_least, mobius_divisors, poly_power_row, prime_char, witt_weight_count
from .tiltchar import Basis, Decomposition, char_weyl, decompose

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
]


def char_lie_power(r: int) -> SymCharacter:
    """Weight multiplicities of the degree-r Lie component on two letters.

    The multiplicity at weight r - 2i counts the Lyndon words of length r
    with i second letters, (1/r) * sum over d | gcd(r, i) of
    mobius(d) * C(r/d, i/d); the total dimension is the Witt necklace count
    (1/r) * sum over d | r of mobius(d) * 2**(r/d).  This is lie_power_char
    of the natural character x + 1/x, whose rows are binomial.
    """
    return lie_power_char(char_weyl(1), r)


def lie_power_char(chi: SymCharacter, r: int) -> SymCharacter:
    """Character of the degree-r free Lie component on a module with character chi.

    Witt's necklace sum (1/r) * sum over d | r of mobius(d) * chi_d**(r/d),
    where chi_d dilates the weights of chi by d.  Valid in every
    characteristic because the Lyndon basis is integral.  Write chi as
    x**top * P(y) with y = x**-2, P read from chi.poly: chi_d**(r/d) is
    x**(r*top) times P(y**d)**(r/d), so each squarefree d adds mobius(d)
    times the coefficient row of P**(r/d) at every d-th power of y.  Only the
    powers up to the zero weight are built, and the division by r is exact
    and checked.
    """
    r = at_least(r, 1, "degree")
    if chi.is_zero:
        return SymCharacter()
    top, coeffs = chi.max_weight, chi.poly
    half = r * top // 2
    acc = [0] * (half + 1)
    for d, mu in mobius_divisors(r):
        power = poly_power_row([(coeffs, r // d)], half // d + 1)
        acc[::d] = [a + mu * c for a, c in zip(acc[::d], power)]
    for i, a in enumerate(acc):
        acc[i], rem = divmod(a, r)
        if rem:
            raise ConsistencyError(f"necklace sum not divisible by {r} at weight {r * top - 2 * i}")
    return SymCharacter.from_row(r * top, acc)


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

    With y = x**-2 the product is x**(2s + t) * (1 + y + y**2)**s * (1 + y)**t,
    so the multiplicity at weight 2s + t - 2j is the coefficient of y**j: one
    coefficient row of a product of two powers.
    """
    s, t = at_least(s, 1, "s"), at_least(t, 1, "t")
    row = poly_power_row([((1, 1, 1), s), ((1, 1), t)], s + t // 2 + 1)
    # Witt count of bidegree (s, t): gcd(s, t) = gcd(s + t, t), and each multinomial is C((s + t)/d, t/d).
    return StohrSummand(s, t, witt_weight_count(s + t, t), SymCharacter.from_row(2 * s + t, row))


def stohr_pairs(r: int) -> list[StohrSummand]:
    """The depth-one summands of the characteristic-2 splitting in degree r:
    all (s, t) with s, t >= 1 and 2s + 3t = r, by increasing t.

    Empty when no solution exists (r = 4 and r = 6); degrees below 4 are
    rejected because the splitting starts there.
    """
    r = at_least(r, 4, "degree")
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
        w = max(m for m in expected | set(dec.entries) if m not in expected or dec.coefficient(m) <= 0)
        raise ConsistencyError(f"support pattern violated for bidegree ({x.s}, {x.t}): "
                               f"weight {w} has coefficient {dec.coefficient(w)}")
    return dec


class Verdict(str, Enum):
    """Outcome of a tilting analysis of a Lie power character."""

    TILTING = "tilting"
    NOT_TILTING_CERTIFIED = "not-tilting-certified"
    INCONCLUSIVE = "inconclusive"


class LieDecompReport(NamedTuple):
    """The tilting-basis content of a Lie power, which carries its degree
    and characteristic, with the verdict it supports."""

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
    p, r = prime_char(p), operator.index(r)
    dec = decompose(char_lie_power(r), Basis.TILTING, r, p)
    if r % p:
        if not dec.is_nonnegative:
            w, c = next((w, c) for w, c in dec.entries.items() if c < 0)
            raise ConsistencyError(f"negative tilting multiplicity at r={r}, p={p} with p not dividing r: "
                                   f"weight {w} has coefficient {c}")
        verdict = Verdict.TILTING
    elif not dec.is_nonnegative:
        verdict = Verdict.NOT_TILTING_CERTIFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    return LieDecompReport(dec, verdict)


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
