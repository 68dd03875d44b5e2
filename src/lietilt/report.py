"""Classification reports over two-row highest weights.

Three sweeps, one per classification result carried by the CLI:

* theorem_a_report: characteristic 2, which tilting summands occur in a
  Lie power, every row carrying the evidence used to certify it;
* theorem_c_report: odd characteristic, prime-power and twice-prime-power
  degrees, with the stated exception lists and a per-row necessary
  character condition;
* theorem_37_report: characteristic 2 parity dichotomy, with signed
  certificates for even degrees.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .charring import ConsistencyError, Partition2, SymCharacter, two_row_partitions
from .gzeta import is_p_power, theorem_b_predicate
from .liechar import (
    LieDecompReport,
    Verdict,
    char_lie_power,
    lie_tilting_decomp,
    stohr_summand,
    stohr_tilting_decomp,
)
from .modarith import PrimeChar, witt_weight_count
from .tiltchar import tilting_multiplicities

__all__ = [
    "Evidence",
    "TheoremARow",
    "TheoremCClause",
    "TheoremCRow",
    "theorem_37_report",
    "theorem_a_report",
    "theorem_c_report",
]

class Evidence(str, Enum):
    """How a row of the characteristic-2 classification is certified."""

    ZERO_WEIGHT_SPACE = "zero-weight-space"
    THEOREM_B = "theorem-b"
    STOHR_SUMMAND = "stohr-summand"
    NONE = "none"


class TheoremARow(NamedTuple):
    partition: Partition2
    expected: bool
    evidence: Evidence
    certified: bool


def theorem_a_report(r: int) -> list[TheoremARow]:
    """Classify every 2-regular two-row partition of r by whether its tilting
    module occurs in the degree-r Lie power, characteristic 2.

    The top row (r) never occurs (the top weight space of the Lie power is
    zero); the near-top row (r - 1, 1) occurs exactly when r is not a power
    of 2, certified by the coefficient-sequence engine; every deeper row is
    certified by a positive coefficient in a single witness bidegree
    summand, (s, 1) for odd r and (s, 2) for even r.
    """
    if r <= 6:
        raise ValueError(f"classification needs degree > 6, got {r}")
    return _theorem_a_rows(r, theorem_b_predicate(r, 2))


def _theorem_a_rows(r: int, near_top: bool) -> list[TheoremARow]:
    """The rows of theorem_a_report, given theorem_b_predicate(r, 2): a
    caller that already holds the degree's profile passes its verdict."""
    two_power = is_p_power(r, 2)
    top_zero = witt_weight_count(r, 0) == 0
    if r % 2:
        witness = stohr_summand((r - 3) // 2, 1)
    else:
        witness = stohr_summand(r // 2 - 3, 2)
    witness_dec = stohr_tilting_decomp(witness)
    rows = []
    for lam in two_row_partitions(r):
        if not lam.is_p_regular(2):
            continue
        if lam.lambda2 == 0:
            rows.append(TheoremARow(lam, False, Evidence.ZERO_WEIGHT_SPACE, top_zero))
        elif lam.lambda2 == 1:
            expected = not two_power
            certified = near_top == expected
            rows.append(TheoremARow(lam, expected, Evidence.THEOREM_B, certified))
        else:
            certified = witness_dec.coefficient(lam.weight) > 0
            rows.append(TheoremARow(lam, True, Evidence.STOHR_SUMMAND, certified))
    return rows


class TheoremCClause(str, Enum):
    """Which branch of the odd-characteristic classification applies."""

    I = "i"  # r = p**m, p > 3
    II = "ii"  # r = p**m, p = 3
    III = "iii"  # r = 2 * p**m, p > 3
    IV = "iv"  # r = 2 * p**m, p = 3


class TheoremCRow(NamedTuple):
    clause: TheoremCClause
    partition: Partition2
    claimed: bool
    char_consistent: bool


def _char_consistent(chi: SymCharacter, m: int, p: int) -> bool:
    """Necessary condition for a tilting summand of highest weight m: one
    subtraction of its character must leave non-negative multiplicities.

    The multiplicities of T(m) are read off its Weyl factors; its character
    is never built."""
    # Off that support chi keeps its Lyndon-word counts, which are never negative.
    return all(chi.multiplicity(w) >= k for w, k in tilting_multiplicities(m, p))


def _theorem_c_clause(r: int, p: PrimeChar) -> tuple[TheoremCClause, int]:
    if is_p_power(r, p):
        if r <= p:
            raise ValueError(f"degree must exceed {int(p)}, got {r}")
        return (TheoremCClause.II if p == 3 else TheoremCClause.I), r
    if r % 2 == 0 and is_p_power(r // 2, p):
        if p == 3 and r == 6:
            # With m = 1 the exception (pm + 2, pm - 2) is the near-top row,
            # which occurs because 6 is not a power of 3.
            raise ValueError("degree must exceed 6 for p=3, got 6")
        return (TheoremCClause.IV if p == 3 else TheoremCClause.III), r // 2
    raise ValueError(f"degree must be p**m or 2*p**m for p={int(p)}, got {r}")


def theorem_c_report(r: int, p: int) -> list[TheoremCRow]:
    """Rows for the odd-characteristic classification at degree r.

    The claimed flag marks the two-row partitions asserted to label tilting
    summands of the Lie power; the stated exception lists depend on the
    clause.  The near-top row is cross-checked against the coefficient
    sequence engine, and every row carries the single-subtraction character
    consistency flag.
    """
    p = PrimeChar(p)
    if int(p) == 2:
        raise ValueError("odd characteristic only")
    clause, pm = _theorem_c_clause(r, p)
    exceptions = {Partition2(r, 0)}
    if clause in (TheoremCClause.I, TheoremCClause.II):
        exceptions.add(Partition2(r - 1, 1))
        if clause is TheoremCClause.II:
            exceptions.add(Partition2((r + 1) // 2, (r - 1) // 2))
    else:
        exceptions.add(Partition2(pm, pm))
        if clause is TheoremCClause.IV:
            exceptions.add(Partition2(pm + 1, pm - 1))
            exceptions.add(Partition2(pm + 2, pm - 2))
    chi = char_lie_power(r)
    rows = []
    for lam in two_row_partitions(r):
        claimed = lam not in exceptions
        if lam.lambda2 == 1 and claimed != theorem_b_predicate(r, p):
            raise ConsistencyError(f"near-top row disagrees with the coefficient-sequence engine at r={r}, p={int(p)}")
        rows.append(TheoremCRow(clause, lam, claimed, _char_consistent(chi, lam.weight, p)))
    return rows


def theorem_37_report(r: int) -> LieDecompReport:
    """Tilting status of the degree-r Lie power in characteristic 2.

    Odd degrees must come back tilting (anything else is a fatal internal
    inconsistency); even degrees are either certified non-tilting by a
    negative coefficient or left inconclusive, never reported tilting.
    """
    if r <= 6:
        raise ValueError(f"the dichotomy needs degree > 6, got {r}")
    rep = lie_tilting_decomp(r, 2)
    if r % 2 and rep.verdict is not Verdict.TILTING:
        raise ConsistencyError(f"odd degree {r} did not come back tilting")
    return rep

