from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietilt.charring import ConsistencyError, SymCharacter, weight_set
from lietilt.liechar import char_lie_power, lie_tilting_decomp
from lietilt.tiltchar import (
    Basis,
    Decomposition,
    basis_char,
    char_simple,
    char_tilting,
    char_weyl,
    decompose,
    is_weyl_simple,
    natural_power_char,
    tensor_power_decomp,
    tilting_weyl_factors,
    weyl_twist_identity,
)

from oracles import char_tilting_by_products, constant, decompose_by_weight, from_weights, weyl_factors_by_digits

from_row = SymCharacter.from_row


# -- Weyl characters ----------------------------------------------------


def test_char_weyl_known():
    assert char_weyl(0) == from_row(0, (1,))
    assert char_weyl(1) == from_row(1, (1,))
    assert char_weyl(3) == from_row(3, (1, 1))
    assert char_weyl(4) == from_row(4, (1, 1, 1))


def test_char_weyl_dim_and_shape():
    for m in range(0, 40):
        chi = char_weyl(m)
        assert chi.dim == m + 1
        assert chi.max_weight == m
        assert chi.row == (1,) * (m // 2 + 1)
    with pytest.raises(ValueError):
        char_weyl(-1)


# -- simple characters --------------------------------------------------


def test_char_simple_known():
    assert char_simple(6, 2) == from_row(6, (1, 0, 1, 0))
    assert char_simple(0, 2) == from_row(0, (1,))
    assert char_simple(1, 2) == from_row(1, (1,))
    assert char_simple(5, 3) == from_row(5, (1, 1, 1))


def test_char_simple_dim_is_digit_product():
    for p in (2, 3, 5):
        for m in range(0, 127):
            digits = []
            q = m
            while q:
                digits.append(q % p)
                q //= p
            if not digits:
                digits = [0]
            expected = math.prod(d + 1 for d in digits)
            assert char_simple(m, p).dim == expected


def test_char_simple_twisted_steinberg_dim():
    # m = p^e - 2 has base-p digits (p-2, p-1, ..., p-1).
    for p in (2, 3, 5):
        for e in range(1, 6):
            m = p**e - 2
            if m < 0:
                continue
            assert char_simple(m, p).dim == (p - 1) * p ** (e - 1)


def test_char_simple_validates():
    with pytest.raises(ValueError):
        char_simple(-1, 2)
    with pytest.raises(ValueError):
        char_simple(3, 4)


# -- Weyl-simple detection ---------------------------------------------


def test_is_weyl_simple_known():
    assert is_weyl_simple(0, 2)
    assert is_weyl_simple(1, 2)
    assert is_weyl_simple(2, 3)
    assert not is_weyl_simple(2, 2)
    assert is_weyl_simple(3, 2)  # m + 1 = 4 = 2^2
    assert is_weyl_simple(5, 3)  # m + 1 = 6 = 2 * 3
    assert not is_weyl_simple(6, 2)
    assert is_weyl_simple(7, 2)


def test_is_weyl_simple_matches_characters():
    for p in (2, 3, 5):
        for m in range(0, 151):
            assert is_weyl_simple(m, p) == (char_simple(m, p) == char_weyl(m))


# -- tilting characters -------------------------------------------------


def test_char_tilting_small_known():
    assert char_tilting(0, 2) == from_row(0, (1,))
    assert char_tilting(1, 2) == from_row(1, (1,))
    assert char_tilting(2, 2) == from_row(2, (1, 2))
    assert char_tilting(3, 2) == from_row(3, (1, 1))
    assert char_tilting(4, 2) == from_row(4, (1, 2, 2))
    assert char_tilting(6, 2) == from_row(6, (1, 2, 3, 4))
    assert char_tilting(2, 3) == from_row(2, (1, 1))
    assert char_tilting(3, 3) == from_row(3, (1, 2))
    assert char_tilting(4, 3) == from_row(4, (1, 1, 2))


def test_char_tilting_monic_and_dim_bound():
    for p in (2, 3, 5, 7):
        for m in range(0, 201):
            chi = char_tilting(m, p)
            assert chi.max_weight == m
            assert chi.row[0] == 1
            assert chi.dim >= m + 1
            # T(m) collapses to the Weyl character exactly when that
            # Weyl module is already simple.
            assert (chi.dim == m + 1) == is_weyl_simple(m, p)


def test_char_tilting_below_p_is_weyl():
    for p in (2, 3, 5, 7):
        for m in range(0, p):
            assert char_tilting(m, p) == char_weyl(m)


def test_char_tilting_first_band_sum():
    for p in (2, 3, 5, 7):
        for m in range(p, 2 * p - 1):
            assert char_tilting(m, p) == char_weyl(m) + char_weyl(2 * p - 2 - m)


def test_tilting_weyl_factors_match_the_digit_rule():
    # Donkin's tensor product theorem, checked against the signed digits of m + 1 instead of its recursion.
    for p in (2, 3, 5, 7, 11):
        assert [m for m in range(1000) if tilting_weyl_factors(m, p) != weyl_factors_by_digits(m, p)] == []


def test_char_tilting_matches_weyl_factor_oracle():
    # The factors descend strictly: T(m) has a multiplicity-free Weyl filtration.
    for p in (2, 3, 5, 7, 11):
        for m in range(400):
            factors = tilting_weyl_factors(m, p)
            assert factors[0] == m and list(factors) == sorted(set(factors), reverse=True), (m, p)
            weights = Counter(w for k in factors for w in range(k, -1, -2))
            assert char_tilting(m, p) == from_weights(weights), (m, p)


def test_tilting_weyl_factors_table_is_immutable():
    factors = tilting_weyl_factors(40, 3)
    assert isinstance(factors, tuple)
    with pytest.raises(TypeError):
        factors[0] = 0
    assert tilting_weyl_factors(40, 3) == (40, 36, 34, 30, 22, 18, 16, 12)
    with pytest.raises(ValueError):
        tilting_weyl_factors(-1, 3)
    with pytest.raises(ValueError):
        tilting_weyl_factors(4, 6)


def test_char_tilting_validates():
    with pytest.raises(ValueError):
        char_tilting(-1, 2)
    with pytest.raises(ValueError):
        char_tilting(2, 6)


def test_basis_char_dispatch():
    assert basis_char(Basis.DELTA, 4, 2) == char_weyl(4)
    assert basis_char(Basis.SIMPLE, 6, 2) == char_simple(6, 2)
    assert basis_char(Basis.TILTING, 6, 2) == char_tilting(6, 2)


def test_basis_given_by_name():
    chi = from_row(4, (1, 0, 0))
    for basis in Basis:
        assert basis_char(basis.value, 6, 2) == basis_char(basis, 6, 2)
        dec = decompose(chi, basis.value, 4, 2)
        assert dec.basis is basis
        assert dec.entries == decompose(chi, basis, 4, 2).entries
    assert decompose(SymCharacter(), "tilting", 4, 2).basis is Basis.TILTING
    for call in (lambda: basis_char("bogus", 4, 2), lambda: decompose(chi, "bogus", 4, 2)):
        with pytest.raises(ValueError, match="bogus"):
            call()


# -- decomposition ------------------------------------------------------


def test_decompose_basis_members_are_unit_vectors():
    for p in (2, 3, 5):
        for basis in Basis:
            for m in range(0, 31):
                chi = basis_char(basis, m, p)
                dec = decompose(chi, basis, r=m if m else 2, p=p)
                assert dec.entries == {m: 1}


def test_decompose_round_trip_random():
    rng = random.Random(20260823)
    for p in (2, 3, 5):
        for basis in Basis:
            for _ in range(8):
                r = rng.randrange(1, 25)
                weights = [w for w in range(r % 2, r + 1, 2)]
                coeffs = {w: rng.randrange(-3, 4) for w in rng.sample(weights, min(4, len(weights)))}
                chi = SymCharacter()
                for w, c in coeffs.items():
                    chi = chi + basis_char(basis, w, p) * constant(c)
                dec = decompose(chi, basis, r=r, p=p)
                assert dec.entries == {w: c for w, c in coeffs.items() if c}


def test_decompose_known_change_of_basis():
    dec = decompose(char_tilting(2, 2), Basis.SIMPLE, r=2, p=2)
    assert dec.entries == {2: 1, 0: 2}
    dec = decompose(char_weyl(6), Basis.SIMPLE, r=6, p=2)
    assert dec.entries == {6: 1, 4: 1, 0: 1}


def test_decompose_zero_character():
    dec = decompose(SymCharacter(), Basis.TILTING, r=4, p=2)
    assert dec.entries == {}
    assert dec.is_nonnegative


def test_decompose_validates():
    with pytest.raises(ValueError):
        decompose(from_row(1, (1,)), Basis.TILTING, r=2, p=2)  # parity clash
    with pytest.raises(ValueError):
        decompose(from_row(6, (1, 0, 0, 0)), Basis.TILTING, r=4, p=2)  # weight too big
    with pytest.raises(ValueError):
        decompose(from_row(2, (1, 0)), Basis.TILTING, r=0, p=2)


def test_decomposition_helpers():
    dec = Decomposition(basis=Basis.TILTING, entries={2: 1, 0: -1}, r=4, p=2)
    assert dec.coefficient(2) == 1
    assert dec.coefficient(4) == 0
    assert tuple(dec.entries) == (2, 0)
    assert not dec.is_nonnegative
    assert dec.dimension == 4 - 1  # dim T(2) - dim T(0) at p = 2


def test_weyl_and_tilting_decompose_multiply_nothing(monkeypatch):
    calls = []
    mul = SymCharacter.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    chi, lie = natural_power_char(301), char_lie_power(300)
    monkeypatch.setattr(SymCharacter, "__mul__", counting_mul)
    for basis in (Basis.TILTING, Basis.DELTA):
        for p in (2, 3, 5, 7):
            decompose(chi, basis, 301, p)
            decompose(lie, basis, 300, p)
    assert calls == []


# -- Weyl coordinates against the product oracle (property-based) -------

PRIMES = st.sampled_from((2, 3, 5, 7))
BASES = st.sampled_from((Basis.DELTA, Basis.SIMPLE, Basis.TILTING))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 400), PRIMES)
def test_char_tilting_matches_product_oracle(m, p):
    assert char_tilting(m, p) == char_tilting_by_products(m, p)


def _oracle_member(basis, p):
    if basis is Basis.DELTA:
        return char_weyl
    if basis is Basis.SIMPLE:
        return lambda w: char_simple(w, p)
    return lambda w: char_tilting_by_products(w, p)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 400), PRIMES, BASES)
def test_tensor_decompose_matches_weight_elimination(r, p, basis):
    chi = natural_power_char(r)
    assert decompose(chi, basis, r, p).entries == decompose_by_weight(chi, _oracle_member(basis, p), r)
    if basis is Basis.TILTING:
        assert tensor_power_decomp(r, p).entries == decompose_by_weight(chi, _oracle_member(basis, p), r)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 400), PRIMES, BASES)
def test_lie_decompose_matches_weight_elimination(r, p, basis):
    chi = char_lie_power(r)
    expected = decompose_by_weight(chi, _oracle_member(basis, p), r)
    assert decompose(chi, basis, r, p).entries == expected
    if basis is Basis.TILTING:
        assert lie_tilting_decomp(r, p).decomposition.entries == expected


@settings(deadline=None, max_examples=80)
@given(st.data(), st.integers(1, 400), PRIMES, BASES)
def test_signed_decompose_matches_weight_elimination(data, r, p, basis):
    # Random virtual characters: any sparse signed support inside [-r, r], zero included.
    mults = data.draw(st.dictionaries(st.integers(0, r // 2), st.integers(-9, 9), max_size=12))
    chi = from_row(r, [mults.get(j, 0) for j in range(r // 2 + 1)])
    assert decompose(chi, basis, r, p).entries == decompose_by_weight(chi, _oracle_member(basis, p), r)


# -- tensor powers ------------------------------------------------------


def test_natural_power_char_is_binomial():
    for r in range(1, 401):
        chi = natural_power_char(r)
        assert chi.dim == 2**r
        assert chi.poly == tuple(math.comb(r, i) for i in range(r + 1))


def test_tensor_power_decomp_known():
    assert tensor_power_decomp(2, 2).entries == {2: 1}
    assert tensor_power_decomp(3, 2).entries == {3: 1, 1: 2}
    assert tensor_power_decomp(1, 5).entries == {1: 1}
    assert tensor_power_decomp(4, 2).entries == {4: 1, 2: 2}


def test_tensor_power_decomp_entries_read_only():
    # The entries are a read-only view, so a caller's write cannot reach another holder.
    with pytest.raises(TypeError):
        tensor_power_decomp(3, 2).entries[3] = 99
    assert tensor_power_decomp(3, 2).entries == {3: 1, 1: 2}


def test_tensor_power_decomp_support_pattern():
    for r in range(1, 19):
        ent2 = tensor_power_decomp(r, 2).entries
        assert set(ent2) == set(weight_set(r))
        assert all(c > 0 for c in ent2.values())
        for p in (3, 5):
            ent = tensor_power_decomp(r, p).entries
            expect = set(weight_set(r)) | ({0} if r % 2 == 0 else set())
            assert set(ent) == expect
            assert all(c > 0 for c in ent.values())


def test_tensor_power_decomp_refuses_a_missing_weight(monkeypatch):
    # T(5) alone decomposes as {5: 1}: no negative coefficient, but no summand at weights 3 and 1.
    monkeypatch.setattr("lietilt.tiltchar.natural_power_char", lambda r: char_tilting(r, 2))
    with pytest.raises(ConsistencyError, match="violated positivity at r=5, p=2: weight 3 has coefficient 0$"):
        tensor_power_decomp(5, 2)


def test_tensor_power_decomp_refuses_a_negative_weight_zero(monkeypatch):
    # Weight 0 may be missing, but not negative.
    fake = char_tilting(4, 3) + char_tilting(2, 3) + char_tilting(0, 3) * constant(-1)
    monkeypatch.setattr("lietilt.tiltchar.natural_power_char", lambda r: fake)
    with pytest.raises(ConsistencyError, match="violated positivity at r=4, p=3: weight 0 has coefficient -1$"):
        tensor_power_decomp(4, 3)


def test_tensor_power_decomp_dimension_conservation():
    for p in (2, 3, 5):
        for r in range(1, 19):
            ent = tensor_power_decomp(r, p).entries
            assert sum(c * char_tilting(m, p).dim for m, c in ent.items()) == 2**r


def test_tensor_power_decomp_multiplicities_grow():
    # Coefficient of T(m) in X^{(r)} is weakly increasing when r grows by 2.
    for p in (2, 3):
        for r in range(1, 19):
            now = tensor_power_decomp(r, p).entries
            nxt = tensor_power_decomp(r + 2, p).entries
            for m, c in now.items():
                assert nxt.get(m, 0) >= c


def test_tensor_power_decomp_validates():
    with pytest.raises(ValueError):
        tensor_power_decomp(0, 2)
    with pytest.raises(ValueError):
        tensor_power_decomp(3, 9)


# -- tilting tensor identities -----------------------------------------


def test_tilting_product_nonnegative():
    # Products of tilting characters are tilting characters: every
    # greedy decomposition in the tilting basis must be nonnegative.
    for p in (2, 3):
        for n in range(0, 13):
            for m in range(n, 13):
                prod = char_tilting(n, p) * char_tilting(m, p)
                dec = decompose(prod, Basis.TILTING, r=n + m if n + m else 2, p=p)
                assert dec.is_nonnegative
                assert dec.coefficient(n + m) == 1
                assert sum((char_tilting(w, p) * constant(c) for w, c in dec.entries.items()), SymCharacter()) == prod


def test_weyl_twist_identity_sweep():
    for p in (2, 3, 5):
        for n in range(1, 13):
            for i in range(0, p - 1):
                assert weyl_twist_identity(n, i, p)


def test_weyl_twist_identity_validates():
    with pytest.raises(ValueError):
        weyl_twist_identity(0, 0, 2)
    with pytest.raises(ValueError):
        weyl_twist_identity(2, 1, 2)  # i must be at most p - 2
    with pytest.raises(ValueError):
        weyl_twist_identity(2, -1, 3)
