from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietilt.charring import Partition2, SymCharacter
from lietilt.cli import payload_theorem_37
from lietilt.gzeta import is_p_power
from lietilt.liechar import Verdict, char_lie_power
from lietilt.report import (
    Evidence,
    TheoremCClause,
    _char_consistent,
    theorem_a_report,
    theorem_c_report,
)
from lietilt.tiltchar import Basis, char_weyl, decompose

from oracles import bryant_schocker_pieces, char_consistent_by_weights, weights


# -- characteristic-2 inclusion table -----------------------------------


def test_theorem_a_report_degree_seven():
    rows = theorem_a_report(7)
    assert [row.partition for row in rows] == [
        Partition2(7, 0),
        Partition2(6, 1),
        Partition2(5, 2),
        Partition2(4, 3),
    ]
    by_lam = {row.partition: row for row in rows}
    assert by_lam[Partition2(7, 0)].expected is False
    assert by_lam[Partition2(7, 0)].evidence is Evidence.ZERO_WEIGHT_SPACE
    assert by_lam[Partition2(6, 1)].expected is True
    assert by_lam[Partition2(6, 1)].evidence is Evidence.THEOREM_B
    assert by_lam[Partition2(5, 2)].evidence is Evidence.STOHR_SUMMAND
    assert by_lam[Partition2(4, 3)].evidence is Evidence.STOHR_SUMMAND
    assert all(row.certified for row in rows)


def test_theorem_a_report_two_power_degrees_drop_near_top_row():
    for r in (8, 16):
        rows = {row.partition: row for row in theorem_a_report(r)}
        near_top = rows[Partition2(r - 1, 1)]
        assert near_top.expected is False
        assert near_top.evidence is Evidence.THEOREM_B
        assert near_top.certified
        deep = [row for lam, row in rows.items() if lam.lambda2 >= 2]
        assert deep and all(row.expected for row in deep)


def test_theorem_a_report_skips_singular_partition():
    rows = theorem_a_report(8)
    assert Partition2(4, 4) not in {row.partition for row in rows}
    assert len(rows) == 4


def test_theorem_a_report_certified_sweep():
    for r in range(7, 25):
        rows = theorem_a_report(r)
        assert all(row.certified for row in rows)
        expected_true = {row.partition for row in rows if row.expected}
        # Everything except the top row, and except the near-top row when
        # the degree is a power of two.
        want = {lam for lam in (row.partition for row in rows) if lam.lambda2 >= 2}
        if r & (r - 1):
            want.add(Partition2(r - 1, 1))
        assert expected_true == want


def deep_rows_absent_from_bryant_schocker_piece(r_max: int) -> list[tuple[int, Partition2]]:
    """The rows with lambda2 >= 2 of theorem_a_report(r), for every r in 7 .. r_max that is not a power
    of 2, whose T(r - 2 * lambda2) has no positive coefficient in the tilting piece B_r of L^r."""
    pieces = bryant_schocker_pieces(2, r_max)
    absent = []
    for r in range(7, r_max + 1):
        if is_p_power(r, 2):
            continue  # B_r = 0 there: the Stohr witness is the only evidence
        dec = decompose(pieces[r], Basis.TILTING, r, 2)
        absent += [(r, row.partition) for row in theorem_a_report(r)
                   if row.partition.lambda2 >= 2 and dec.coefficient(row.partition.weight) <= 0]
    return absent


def test_theorem_a_deep_rows_are_present_in_the_bryant_schocker_piece():
    # A second certificate for the rows that one Stohr witness certifies: a positive coefficient of
    # T(m) in the tilting summand B_r puts T(m) in L^r.
    assert deep_rows_absent_from_bryant_schocker_piece(200) == []


def test_theorem_a_report_validates():
    with pytest.raises(ValueError):
        theorem_a_report(6)
    with pytest.raises(ValueError):
        theorem_a_report(0)


def test_evidence_enum_values():
    assert Evidence.ZERO_WEIGHT_SPACE.value == "zero-weight-space"
    assert Evidence.THEOREM_B.value == "theorem-b"
    assert Evidence.STOHR_SUMMAND.value == "stohr-summand"


# -- odd-characteristic exception lists ---------------------------------


def _claims(rows):
    return {row.partition: row.claimed for row in rows}


def test_theorem_c_report_nine_three():
    rows = theorem_c_report(9, 3)
    assert all(row.clause is TheoremCClause.II for row in rows)
    assert _claims(rows) == {
        Partition2(9, 0): False,
        Partition2(8, 1): False,
        Partition2(7, 2): True,
        Partition2(6, 3): True,
        Partition2(5, 4): False,
    }
    for row in rows:
        if row.claimed:
            assert row.char_consistent


def test_theorem_c_report_ten_five():
    rows = theorem_c_report(10, 5)
    assert all(row.clause is TheoremCClause.III for row in rows)
    claims = _claims(rows)
    assert claims[Partition2(10, 0)] is False
    assert claims[Partition2(5, 5)] is False
    assert all(claims[Partition2(10 - b, b)] for b in range(1, 5))


def test_theorem_c_report_exception_shapes():
    cases = {
        (27, 3): {Partition2(27, 0), Partition2(26, 1), Partition2(14, 13)},
        (50, 5): {Partition2(50, 0), Partition2(25, 25)},
        (25, 5): {Partition2(25, 0), Partition2(24, 1)},
        (18, 3): {
            Partition2(18, 0),
            Partition2(9, 9),
            Partition2(10, 8),
            Partition2(11, 7),
        },
    }
    clauses = {
        (27, 3): TheoremCClause.II,
        (50, 5): TheoremCClause.III,
        (25, 5): TheoremCClause.I,
        (18, 3): TheoremCClause.IV,
    }
    for (r, p), exceptions in cases.items():
        rows = theorem_c_report(r, p)
        assert {row.partition for row in rows if not row.claimed} == exceptions
        assert all(row.clause is clauses[(r, p)] for row in rows)


# Every degree r <= 400 of the form p**m or 2 * p**m that theorem_c_report accepts.
THEOREM_C_DEGREES = [(r, p) for p in (3, 5, 7) for k in range(1, 6) for r in (p**k, 2 * p**k)
                     if p < r <= 400 and (r, p) != (6, 3)]


@pytest.mark.parametrize(("r", "p"), THEOREM_C_DEGREES)
def test_theorem_c_char_consistent_matches_product_oracle(r, p):
    chi = char_lie_power(r)
    for row in theorem_c_report(r, p):
        assert row.char_consistent == char_consistent_by_weights(chi, row.partition.weight, p)


# The exceptions of theorem_c_report at r = 2 * p**m whose T(lambda1 - lambda2) has a positive
# coefficient in the Bryant-Schocker piece B_r, by clause.
POSITIVE_EXCEPTIONS = {
    TheoremCClause.III: lambda pm: {Partition2(pm, pm)},
    TheoremCClause.IV: lambda pm: {Partition2(pm + 1, pm - 1), Partition2(pm + 2, pm - 2)},
}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_theorem_c_rows_read_in_bryant_schocker_piece(p):
    # Records what the tilting piece B_r reads at every theorem-c degree up to
    # 500, so that a change in how the rows are read shows up here: B_r = 0 at
    # r = p**m, and at r = 2 * p**m every claimed row and exactly the listed
    # exceptions have a positive coefficient.
    degrees = [r for m in range(1, 6) for r in (p**m, 2 * p**m) if p < r <= 500 and (r, p) != (6, 3)]
    pieces = bryant_schocker_pieces(p, max(degrees))
    for r in degrees:
        if r % 2:
            assert pieces[r].is_zero, r
            continue
        rows = theorem_c_report(r, p)
        dec = decompose(pieces[r], Basis.TILTING, r, p)
        positive = {row.partition for row in rows if dec.coefficient(row.partition.weight) > 0}
        claimed = {row.partition for row in rows if row.claimed}
        assert (claimed - positive, positive - claimed) == (set(), POSITIVE_EXCEPTIONS[rows[0].clause](r // 2)), r


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_char_consistent_matches_product_oracle_on_sums_of_weyl_characters(data):
    # Lie powers fail the check only at the top row, so mixed characters exercise both answers.
    p = data.draw(st.sampled_from((3, 5, 7)))
    r = data.draw(st.integers(1, 400))
    m = data.draw(st.sampled_from(range(r % 2, r + 1, 2)))
    tops = data.draw(st.lists(st.sampled_from(range(r % 2, r + 1, 2)), max_size=6))
    chi = SymCharacter()
    for k in tops:
        chi = chi + char_weyl(k)
    mults = [weights(chi).get(w, 0) for w in range(r % 2, r + 1, 2)]
    assert _char_consistent(mults, m, p) == char_consistent_by_weights(chi, m, p)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_char_consistent_bands_match_per_weight_oracle_on_random_rows(data):
    # Small random multiplicities fall below T(m) inside a band, not only at its top weight.
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    r = data.draw(st.integers(0, 300))
    m = data.draw(st.sampled_from(range(r % 2, r + 1, 2)))
    mults = data.draw(st.lists(st.integers(0, 5), min_size=r // 2 + 1, max_size=r // 2 + 1))
    chi = SymCharacter.from_row(r, mults[::-1])
    assert _char_consistent(mults, m, p) == char_consistent_by_weights(chi, m, p)


def test_theorem_c_report_validates():
    with pytest.raises(ValueError):
        theorem_c_report(9, 2)  # characteristic must be odd
    with pytest.raises(ValueError):
        theorem_c_report(15, 3)  # neither p**m nor 2 * p**m
    with pytest.raises(ValueError):
        theorem_c_report(3, 3)  # degree must exceed p
    with pytest.raises(ValueError):
        theorem_c_report(12, 3)
    with pytest.raises(ValueError):
        theorem_c_report(6, 3)  # (pm + 2, pm - 2) would be the near-top row


# -- parity dichotomy ---------------------------------------------------
# The theorem-37 report is the CLI payload over lie_tilting_decomp(r, 2), with the command's own r >= 7 bound.


def test_theorem_37_report_known():
    assert payload_theorem_37(7, 2)["verdict"] == Verdict.TILTING
    assert payload_theorem_37(8, 2)["verdict"] == Verdict.NOT_TILTING_CERTIFIED
    assert payload_theorem_37(10, 2)["verdict"] == Verdict.INCONCLUSIVE


def test_theorem_37_report_sweep():
    for r in range(7, 25, 2):
        assert payload_theorem_37(r, 2)["verdict"] == Verdict.TILTING
    for r in range(8, 25, 2):
        assert payload_theorem_37(r, 2)["verdict"] != Verdict.TILTING


def test_theorem_37_report_validates():
    with pytest.raises(ValueError):
        payload_theorem_37(6, 2)
