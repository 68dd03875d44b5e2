"""Classification reports over two-row highest weights.

Two sweeps over the rows of one degree:

* theorem_a_report: characteristic 2, which tilting summands occur in a
  Lie power, every row carrying the evidence used to certify it;
* theorem_c_report: odd characteristic, prime-power and twice-prime-power
  degrees, with the stated exception lists and a per-row necessary
  character condition.

The CLI's theorem-37 verdict, the characteristic 2 parity dichotomy, is
liechar.lie_tilting_decomp(r, 2) for r >= 7: it needs no sweep.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import NamedTuple, Sequence

from .charring import ConsistencyError, Partition2, two_row_partitions
from .gzeta import is_p_power, theorem_b_predicate
from .liechar import char_lie_power, stohr_summand, stohr_tilting_decomp
from .modarith import at_least, prime_char, witt_weight_count
from .tiltchar import tilting_bands

__all__ = [
    "Evidence",
    "TheoremARow",
    "TheoremCClause",
    "TheoremCRow",
    "theorem_a_report",
    "theorem_c_report",
]

class Evidence(str, Enum):
    """How a row of the characteristic-2 classification is certified."""

    ZERO_WEIGHT_SPACE = "zero-weight-space"
    THEOREM_B = "theorem-b"
    STOHR_SUMMAND = "stohr-summand"


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
    certified by the tilting support of a single witness bidegree summand,
    (s, 1) for odd r and (s, 2) for even r.
    """
    r = at_least(r, 7, "degree")
    near_top = theorem_b_predicate(r, 2)
    two_power = is_p_power(r, 2)
    top_zero = witt_weight_count(r, 0) == 0
    # Raises unless the witness's support is exactly the weights r - 2, ..., 1 (odd r) or r - 4, ..., 2
    # (even r), which hold the weight r - 2 * lambda2 of every row with lambda2 >= 2.
    stohr_tilting_decomp(stohr_summand((r - 3) // 2, 1) if r % 2 else stohr_summand(r // 2 - 3, 2))
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
            rows.append(TheoremARow(lam, True, Evidence.STOHR_SUMMAND, True))
    return rows


class TheoremCClause(str, Enum):
    """Which branch of the odd-characteristic classification applies."""

    I = "i"  # r = p**m, p > 3
    II = "ii"  # r = p**m, p = 3
    III = "iii"  # r = 2 * p**m, p > 3
    IV = "iv"  # r = 2 * p**m, p = 3


class TheoremCRow(NamedTuple):
    """A theorem_c_report row.  claimed is False exactly on the stated exception
    lists, and such a row asserts nothing (theorem_c_report gives an example)."""

    clause: TheoremCClause
    partition: Partition2
    claimed: bool
    char_consistent: bool


def _char_consistent(mults: Sequence[int], m: int, p: int) -> bool:
    """Necessary condition for a tilting summand of highest weight m: one
    subtraction of its character must leave non-negative multiplicities.

    mults[w // 2] is the multiplicity at weight w, for the weights of the
    parity of m up to at least m.  T(m) is read off its Weyl-factor bands
    and never built: each band of constant multiplicity k needs its least
    entry of mults to be at least k."""
    # Above m a Lie power keeps its Lyndon-word counts, which are never negative.
    return all(min(mults[bottom // 2 : top // 2 + 1]) >= k for k, top, bottom in tilting_bands(m, p))


def _theorem_c_clause(r: int, p: int) -> tuple[TheoremCClause, int]:
    if is_p_power(r, p):
        if r <= p:
            raise ValueError(f"degree must exceed {p}, got {r}")
        return (TheoremCClause.II if p == 3 else TheoremCClause.I), r
    if r % 2 == 0 and is_p_power(r // 2, p):
        if p == 3 and r == 6:
            # With m = 1 the exception (pm + 2, pm - 2) is the near-top row,
            # which occurs because 6 is not a power of 3.
            raise ValueError("degree must exceed 6 for p=3, got 6")
        return (TheoremCClause.IV if p == 3 else TheoremCClause.III), r // 2
    raise ValueError(f"degree must be p**m or 2*p**m for p={p}, got {r}")


def theorem_c_report(r: int, p: int) -> list[TheoremCRow]:
    """Rows for the odd-characteristic classification at degree r.

    The claimed flag marks the two-row partitions asserted to label tilting
    summands of the Lie power.  It is False exactly on the stated exception
    lists, which depend on the clause, and the report asserts nothing about
    those rows: at (10, 5) the row (5, 5) is an exception, yet T(0) has
    coefficient 4 in lie_tilting_decomp(10, 5).  The near-top row is
    cross-checked against the coefficient-sequence engine, and every row
    carries the single-subtraction character consistency flag.
    """
    p, r = prime_char(p), operator.index(r)
    if p == 2:
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
    # chi's row, reversed and padded with zeros up to weight r, is indexed by w // 2.
    mults = chi.row[::-1] + (0,) * (r // 2 + 1 - len(chi.row))
    rows = []
    for lam in two_row_partitions(r):
        claimed = lam not in exceptions
        if lam.lambda2 == 1 and claimed != theorem_b_predicate(r, p):
            raise ConsistencyError(f"near-top row disagrees with the coefficient-sequence engine at r={r}, p={p}")
        rows.append(TheoremCRow(clause, lam, claimed, _char_consistent(mults, lam.weight, p)))
    return rows
