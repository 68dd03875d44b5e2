from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lietilt import liechar
from lietilt.charring import ConsistencyError, Partition2, SymCharacter, weight_set
from lietilt.liechar import (
    StohrSummand,
    Verdict,
    char_lie_power,
    l4_weyl2_composition_factors,
    lie_power_char,
    lie_tilting_decomp,
    stohr_pairs,
    stohr_summand,
    stohr_tilting_decomp,
)
from lietilt.modarith import mobius_divisors, witt_weight_count
from lietilt.tiltchar import Basis, char_tilting, char_weyl, decompose

from oracles import (
    bryant_schocker_pieces,
    char_tilting_by_products,
    constant,
    decompose_by_weight,
    free_lie_dim,
    from_weights,
    lie_power_char_by_products,
    lyndon_second_letter_counts,
    lyndon_weight_counts,
    stohr_character_by_products,
    weights,
)

from_row = SymCharacter.from_row


# -- Lie power characters ----------------------------------------------


def test_char_lie_power_known():
    assert char_lie_power(1) == from_row(1, (1,))
    assert char_lie_power(2) == from_row(0, (1,))
    assert char_lie_power(3) == from_row(1, (1,))
    assert char_lie_power(6) == from_row(4, (1, 2, 3))
    assert char_lie_power(8) == from_row(6, (1, 3, 7, 8))
    with pytest.raises(ValueError):
        char_lie_power(0)


def test_char_lie_power_dim_matches_free_lie_rank():
    for r in range(1, 17):
        assert char_lie_power(r).dim == free_lie_dim(2, r)


def test_char_lie_power_weights_match_lyndon_words():
    # Weight r - 2i multiplicity equals the number of two-letter Lyndon
    # words of length r containing the second letter i times.
    for r in range(1, 15):
        counts = lyndon_second_letter_counts(r)
        mult = weights(char_lie_power(r))
        assert [mult.get(abs(r - 2 * i), 0) for i in range(r + 1)] == [counts.get(i, 0) for i in range(r + 1)]


def test_char_lie_power_matches_witt_weight_count():
    for r in range(1, 401):
        mult = weights(char_lie_power(r))
        assert [mult.get(abs(r - 2 * i), 0) for i in range(r + 1)] == [witt_weight_count(r, i) for i in range(r + 1)]


def test_char_lie_power_refuses_non_exact_division(monkeypatch):
    # With every Moebius sign +1, the weight-3 sum at r = 3 is C(3, 0) + C(1, 0) = 2.
    monkeypatch.setattr(liechar, "mobius_divisors", lambda n: [(d, 1) for d, _ in mobius_divisors(n)])
    with pytest.raises(ConsistencyError, match="not divisible by 3 at weight 3"):
        char_lie_power(3)


def test_lie_power_char_generalises_natural_case():
    for r in range(1, 61):
        assert lie_power_char(char_weyl(1), r) == char_lie_power(r)


def test_lie_power_char_weighted_alphabet():
    # Three letters of weights 2, 0, -2 model the adjoint-sized character.
    chi = from_row(2, (1, 1))
    for r in range(1, 9):
        assert lie_power_char(chi, r) == from_weights(lyndon_weight_counts((2, 0, -2), r))


def test_lie_power_char_dim_three_letters():
    chi = from_row(2, (1, 1))
    for r in range(1, 9):
        assert lie_power_char(chi, r).dim == free_lie_dim(3, r)


# Virtual characters of either parity with weights up to 8 and signed multiplicities.
virtual_chars = st.integers(0, 1).flatmap(
    lambda parity: st.dictionaries(st.integers(0, 4).map(lambda k: 2 * k + parity), st.integers(-3, 3), max_size=4)
).map(from_weights)


@settings(deadline=None, max_examples=300)
@given(virtual_chars, st.integers(1, 10))
@example(from_row(1, (2,)), 10)
@example(from_row(2, (-3, 1)), 10)
@example(from_row(2, (-3, 1)), 9)
@example(constant(5), 6)
@example(SymCharacter(), 4)
def test_lie_power_char_matches_product_oracle(chi, r):
    assert lie_power_char(chi, r) == lie_power_char_by_products(chi, r)


def test_lie_power_char_validates():
    with pytest.raises(ValueError):
        lie_power_char(char_weyl(1), 0)


def test_l4_weyl2_composition_factors():
    dec = l4_weyl2_composition_factors()
    assert dec.basis == Basis.SIMPLE
    assert dec.p == 2
    assert dec.entries == {6: 1, 4: 2, 2: 3, 0: 4}
    assert dec.dimension == 18
    assert dec.dimension == free_lie_dim(3, 4)


# -- bidegree summands --------------------------------------------------


def test_stohr_summand_known():
    s = stohr_summand(1, 1)
    assert (s.s, s.t, s.mult) == (1, 1, 1)
    assert s.degree == 5
    assert s.character == from_row(3, (1, 2))
    assert stohr_tilting_decomp(s).entries == {3: 1, 1: 1}


def test_stohr_summand_dimension():
    for s in range(1, 5):
        for t in range(1, 5):
            summand = stohr_summand(s, t)
            assert summand.character.dim == 3**s * 2**t
            assert summand.character.max_weight == 2 * s + t
            assert summand.degree == 2 * s + 3 * t


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 200), st.integers(1, 60))
def test_stohr_summand_matches_product_oracle(s, t):
    assert stohr_summand(s, t).character == stohr_character_by_products(s, t)


def test_stohr_summand_validates():
    with pytest.raises(ValueError):
        stohr_summand(0, 1)
    with pytest.raises(ValueError):
        stohr_summand(1, 0)


def test_stohr_pairs_known():
    assert [(x.s, x.t) for x in stohr_pairs(5)] == [(1, 1)]
    assert [(x.s, x.t) for x in stohr_pairs(7)] == [(2, 1)]
    assert [(x.s, x.t) for x in stohr_pairs(8)] == [(1, 2)]
    assert [(x.s, x.t) for x in stohr_pairs(11)] == [(4, 1), (1, 3)]
    assert stohr_pairs(4) == []
    assert stohr_pairs(6) == []


def test_stohr_pairs_cover_degree_and_order():
    for r in range(4, 40):
        pairs = stohr_pairs(r)
        ts = [x.t for x in pairs]
        assert ts == sorted(ts)
        for x in pairs:
            assert x.s >= 1 and x.t >= 1
            assert 2 * x.s + 3 * x.t == r
            assert x.mult >= 1


def test_stohr_pairs_validates():
    with pytest.raises(ValueError):
        stohr_pairs(3)
    with pytest.raises(ValueError):
        stohr_pairs(0)


def test_stohr_tilting_decomp_pattern():
    for r in range(5, 25):
        if r in (6,):
            continue
        for x in stohr_pairs(r):
            dec = stohr_tilting_decomp(x)
            assert dec.basis == Basis.TILTING
            assert dec.p == 2
            assert dec.is_nonnegative
            assert set(dec.entries) == set(weight_set(2 * x.s + x.t))
            assert all(c > 0 for c in dec.entries.values())
            # Highest term appears exactly once.
            assert dec.coefficient(2 * x.s + x.t) == 1
            # Each weight names a 2-regular partition of r with second row >= t.
            for m in dec.entries:
                lam = Partition2((r + m) // 2, (r - m) // 2)
                assert lam.is_p_regular(2)
                assert lam.lambda2 >= x.t


def test_stohr_tilting_decomp_refuses_a_summand_off_the_support_pattern():
    # T(5) alone in bidegree (2, 1): its tilting support {5} misses the weights 3 and 1.
    with pytest.raises(ConsistencyError, match=r"bidegree \(2, 1\): weight 3 has coefficient 0$"):
        stohr_tilting_decomp(StohrSummand(2, 1, 1, char_tilting(5, 2)))


def test_stohr_tilting_decomp_matches_weight_elimination():
    def member(w):
        return char_tilting_by_products(w, 2)

    for r in range(4, 201):
        for x in stohr_pairs(r):
            assert stohr_tilting_decomp(x).entries == decompose_by_weight(x.character, member, r)


def test_stohr_dimension_identity():
    # Summed over all bidegree pairs (including the boundary pairs with
    # s = 0 or t = 0), multiplicities weight dimensions 3^s 2^t to give
    # the rank of the metabelian-free quotient's complement; here we
    # verify the full free Lie rank from the weight counts instead.
    for r in range(4, 21):
        assert char_lie_power(r).dim == free_lie_dim(2, r)


# -- Lie power tilting decompositions ----------------------------------


def test_lie_tilting_decomp_known():
    rep = lie_tilting_decomp(3, 2)
    assert rep.verdict is Verdict.TILTING
    assert rep.decomposition.entries == {1: 1}

    rep = lie_tilting_decomp(4, 2)
    assert rep.verdict is Verdict.NOT_TILTING_CERTIFIED
    assert rep.decomposition.entries == {2: 1, 0: -1}

    rep = lie_tilting_decomp(6, 2)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.decomposition.entries == {4: 1, 0: 1}

    rep = lie_tilting_decomp(4, 5)
    assert rep.verdict is Verdict.TILTING
    assert rep.decomposition.entries == {2: 1}


def test_lie_tilting_decomp_refuses_a_negative_coefficient_off_p(monkeypatch):
    # 2 does not divide 5, so T(5) - T(3) - T(1) cannot be the Lie power: the message names the top negative weight.
    fake = char_tilting(5, 2) + (char_tilting(3, 2) + char_tilting(1, 2)) * constant(-1)
    monkeypatch.setattr(liechar, "char_lie_power", lambda r: fake)
    with pytest.raises(ConsistencyError, match=r"at r=5, p=2 with p not dividing r: weight 3 has coefficient -1$"):
        lie_tilting_decomp(5, 2)


def test_lie_tilting_decomp_coprime_degree_always_tilting():
    for p in (2, 3, 5):
        for r in range(1, 21):
            if r % p == 0:
                continue
            rep = lie_tilting_decomp(r, p)
            assert rep.verdict is Verdict.TILTING
            assert rep.decomposition.is_nonnegative


def test_lie_tilting_decomp_dimension_conserved():
    for p in (2, 3, 5):
        for r in range(1, 21):
            rep = lie_tilting_decomp(r, p)
            total = sum(
                c * char_tilting(m, p).dim for m, c in rep.decomposition.entries.items()
            )
            assert total == free_lie_dim(2, r)


def test_lie_tilting_decomp_round_trip():
    for p in (2, 3):
        for r in range(1, 19):
            entries = lie_tilting_decomp(r, p).decomposition.entries
            assert sum((char_tilting(m, p) * constant(c) for m, c in entries.items()), SymCharacter()) == char_lie_power(r)


def test_lie_tilting_decomp_even_degree_verdicts_char_two():
    # Multiples of 4 carry a certified negative coefficient; the other
    # even degrees decompose nonnegatively but stay uncertified.  From r = 7
    # on these are the theorem-37 verdicts; odd degrees come back tilting.
    for r in (4, 8, 12, 16, 20):
        assert lie_tilting_decomp(r, 2).verdict is Verdict.NOT_TILTING_CERTIFIED
    for r in (6, 10, 14, 18):
        assert lie_tilting_decomp(r, 2).verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lie_power_remainder_is_tilting(p):
    # Each Bryant-Schocker piece B_r is a summand of V^(x)r, so it is tilting and
    # no tilting coefficient of ch B_r may be negative.  This checks the necklace
    # characters and the tilting elimination against a theorem instead of
    # another code path.
    pieces = bryant_schocker_pieces(p, 200)
    assert [r for r in range(p, 201, p) if not decompose(pieces[r], Basis.TILTING, r, p).is_nonnegative] == []


def test_lie_tilting_decomp_validates():
    with pytest.raises(ValueError):
        lie_tilting_decomp(0, 2)
    with pytest.raises(ValueError):
        lie_tilting_decomp(4, 6)
