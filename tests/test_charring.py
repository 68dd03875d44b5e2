from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lietilt.charring import (
    _TOP_MAX,
    Partition2,
    SymCharacter,
    two_row_partitions,
    weight_set,
)
from lietilt.tiltchar import char_simple, char_tilting
from oracles import DictCharacter, char_product_by_weights


def characters(parity: int, max_half: int = 10, max_mult: int = 4):
    """Strategy for (possibly virtual, possibly zero) characters of one parity."""
    return st.dictionaries(st.integers(0, max_half), st.integers(-max_mult, max_mult), max_size=8).map(
        lambda d: SymCharacter({2 * w + parity: c for w, c in d.items()})
    )


# -- construction -------------------------------------------------------


def test_zero_character():
    zero = SymCharacter()
    assert zero.is_zero
    assert zero.support == ()
    assert zero.max_weight is None
    assert zero.parity is None
    assert zero.dim == 0
    assert not zero


def test_zero_multiplicities_dropped():
    assert SymCharacter({4: 0, 2: 1}).support == (2,)


def test_negative_weights_fold_onto_positive_side():
    assert SymCharacter({-3: 2}) == SymCharacter({3: 2})
    assert SymCharacter({3: 2, -3: 2}) == SymCharacter({3: 2})


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        SymCharacter({3: 2, -3: 1})


def test_mixed_parity_rejected():
    with pytest.raises(ValueError):
        SymCharacter({2: 1, 3: 1})


def test_multiplicity_symmetric():
    chi = SymCharacter({4: 2, 0: 1})
    assert chi.multiplicity(4) == chi.multiplicity(-4) == 2
    assert chi.multiplicity(0) == 1
    assert chi.multiplicity(2) == 0
    assert chi.dim == 5


# -- ring operations ----------------------------------------------------


def test_add_known():
    a = SymCharacter({2: 1, 0: 1})
    b = SymCharacter({0: 1})
    assert a + b == SymCharacter({2: 1, 0: 2})


def test_add_rejects_mixed_parity():
    with pytest.raises(ValueError):
        SymCharacter({1: 1}) + SymCharacter({0: 1})


def test_add_zero_is_identity_for_any_parity():
    zero = SymCharacter()
    odd = SymCharacter({1: 1})
    assert odd + zero == odd
    assert zero + odd == odd


def test_sub_cancels():
    a = SymCharacter({2: 1, 0: 2})
    assert (a - a).is_zero


def test_scale():
    a = SymCharacter({2: 1, 0: 2})
    assert a.scale(3) == SymCharacter({2: 3, 0: 6})
    assert a.scale(0).is_zero
    assert a.scale(-1) == SymCharacter({2: -1, 0: -2})
    with pytest.raises(TypeError):  # scale is the one way to multiply by an integer
        2 * a
    with pytest.raises(TypeError):
        a * 2


def test_mul_known():
    x = SymCharacter({1: 1})  # the natural two-dimensional character
    assert x * x == SymCharacter({2: 1, 0: 2})
    y = SymCharacter({2: 1, 0: 1})
    assert y * y == SymCharacter({4: 1, 2: 2, 0: 3})


def test_mul_unit():
    unit = SymCharacter({0: 1})
    chi = SymCharacter({3: 2, 1: 1})
    assert unit * chi == chi


def test_scale_weights():
    chi = SymCharacter({2: 1, 0: 2})
    assert chi.scale_weights(3) == SymCharacter({6: 1, 0: 2})
    assert chi.scale_weights(1) == chi
    with pytest.raises(ValueError):
        chi.scale_weights(0)


def test_top_weight_above_the_bound_is_refused_before_its_row_exists():
    assert SymCharacter({-_TOP_MAX: 1}).max_weight == _TOP_MAX
    chi = SymCharacter({_TOP_MAX // 4: 1})
    assert chi.scale_weights(4).max_weight == _TOP_MAX
    # Either row would hold about 2**19 entries, some 4 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"top weight must not exceed {_TOP_MAX}, got {_TOP_MAX + 2}"):
            SymCharacter({_TOP_MAX + 2: 1})
        with pytest.raises(ValueError, match=f"top weight must not exceed {_TOP_MAX}, got {5 * _TOP_MAX // 4}"):
            chi.scale_weights(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- algebraic laws (property-based) ------------------------------------


@settings(deadline=None)
@given(st.data())
def test_addition_commutative_associative(data):
    par = data.draw(st.integers(0, 1))
    a, b, c = (data.draw(characters(par)) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_multiplication_commutative_associative_distributive(data):
    a = data.draw(characters(data.draw(st.integers(0, 1))))
    par = data.draw(st.integers(0, 1))
    b, c = (data.draw(characters(par)) for _ in range(2))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def factors(parity: int):
    """Strategy for one factor of a product: zero, one term, Delta(1) at odd
    parity, or a random virtual character."""
    one_term = st.builds(lambda w, c: SymCharacter({2 * w + parity: c}),
                         st.integers(0, 10), st.integers(-4, 4).filter(bool))
    special = [st.just(SymCharacter()), one_term]
    if parity:
        special.append(st.just(SymCharacter({1: 1})))
    return st.one_of(*special, characters(parity))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_mul_matches_weight_pair_oracle(data):
    a = data.draw(factors(data.draw(st.integers(0, 1))))
    b = data.draw(factors(data.draw(st.integers(0, 1))))
    assert a * b == char_product_by_weights(a, b)


# Tilting and simple characters repeat multiplicities over long runs of
# weights, so many weight pairs of a product collide, and in a square every
# pair u = v lands on weight 0.
module_characters = st.builds(
    lambda basis_member, m, p: basis_member(m, p),
    st.sampled_from([char_tilting, char_simple]), st.integers(0, 60), st.sampled_from([2, 3, 5, 7]),
)


@settings(deadline=None, max_examples=100)
@given(module_characters, module_characters)
def test_mul_matches_weight_pair_oracle_on_module_characters(a, b):
    assert a * b == char_product_by_weights(a, b)
    assert a * a == char_product_by_weights(a, a)


@st.composite
def weight_maps(draw):
    """A virtual character as a weight mapping: one parity, weights up to 80,
    zero multiplicities kept, and some weights given with both signs."""
    parity = draw(st.integers(0, 1))
    half = draw(st.dictionaries(st.integers(0, 40 - parity), st.integers(-6, 6), max_size=12))
    out = {}
    for x, c in half.items():
        out[2 * x + parity] = c
        if x + parity and draw(st.booleans()):
            out[-2 * x - parity] = c
    return out


def assert_same(chi, ref):
    """chi, a SymCharacter, reads the same as ref, a DictCharacter, through every query."""
    assert repr(chi) == repr(ref)
    assert chi.support == ref.support
    for name in ("max_weight", "parity", "dim", "is_zero"):
        assert getattr(chi, name) == getattr(ref, name), name
    reach = (ref.max_weight or 0) + 3
    assert [chi.multiplicity(w) for w in range(-reach, reach + 1)] == [ref.multiplicity(w) for w in range(-reach, reach + 1)]


@settings(deadline=None, max_examples=300)
@given(a=weight_maps(), b=weight_maps(), c=st.integers(-3, 3), k=st.integers(1, 4))
@example(a={}, b={}, c=2, k=2)  # the zero character
@example(a={0: 5}, b={0: -2}, c=-1, k=3)  # weight 0 alone
@example(a={6: 1, 2: 3}, b={6: -1, 4: 2}, c=1, k=1)  # + cancels the top weight
@example(a={6: 1, 2: 3}, b={-6: 1, 6: 1, 4: 2}, c=1, k=1)  # - cancels the top weight
@example(a={3: 1, 1: 2}, b={-3: 1, 3: 1, 1: 2}, c=0, k=1)  # a == b, so a - b is zero; scale(0)
@example(a={5: 2, 1: -1}, b={2: 1}, c=0, k=4)  # scale(0); scale_weights leaves gaps
def test_row_character_matches_dict_reference(a, b, c, k):
    chi_a, chi_b, ref_a, ref_b = SymCharacter(a), SymCharacter(b), DictCharacter(a), DictCharacter(b)
    assert_same(chi_a, ref_a)
    assert (chi_a == chi_b) == (ref_a == ref_b)
    assert_same(chi_a * chi_b, ref_a * ref_b)
    assert_same(chi_a.scale(c), ref_a.scale(c))
    assert_same(chi_a.scale_weights(k), ref_a.scale_weights(k))
    if chi_a.is_zero or chi_b.is_zero or chi_a.parity == chi_b.parity:
        assert_same(chi_a + chi_b, ref_a + ref_b)
        assert_same(chi_a - chi_b, ref_a - ref_b)
    else:
        for x, y in ((chi_a, chi_b), (ref_a, ref_b)):
            with pytest.raises(ValueError):
                x + y
            with pytest.raises(ValueError):
                x - y


def test_from_row_and_row_round_trip():
    chi = SymCharacter({5: 2, 1: -1})
    assert chi.row == (2, 0, -1)
    assert SymCharacter.from_row(chi.max_weight, chi.row) == chi
    assert SymCharacter.from_row(7, (0, 2, 0, -1)) == chi  # leading zeros lower the top weight
    assert SymCharacter.from_row(4, (0, 0, 0)).is_zero
    assert SymCharacter().row == ()
    with pytest.raises(ValueError):
        SymCharacter.from_row(5, (2, 0))
    with pytest.raises(ValueError):
        SymCharacter.from_row(-1, ())


def test_poly_known():
    assert SymCharacter({5: 2, 1: -1}).poly == (2, 0, -1, -1, 0, 2)  # odd: the weight-1 entry twice
    assert SymCharacter({2: 1, 0: 3}).poly == (1, 3, 1)  # even: the zero weight once
    assert SymCharacter({0: 4}).poly == (4,)
    assert SymCharacter().poly == ()


@settings(deadline=None, max_examples=200)
@given(weight_maps())
def test_poly_is_the_mirrored_row(weights):
    chi, ref = SymCharacter(weights), DictCharacter(weights)
    poly = chi.poly
    assert poly == poly[::-1]
    assert sum(poly) == ref.dim
    if not chi.is_zero:
        top = chi.max_weight
        assert len(poly) == top + 1
        assert SymCharacter.from_row(top, poly[: top // 2 + 1]) == chi


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_dim_additive_and_multiplicative(data):
    a = data.draw(characters(data.draw(st.integers(0, 1))))
    par = data.draw(st.integers(0, 1))
    b, c = (data.draw(characters(par)) for _ in range(2))
    assert (a * b).dim == a.dim * b.dim
    assert (b + c).dim == b.dim + c.dim


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_product_parity_and_symmetry(data):
    pa, pb = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    a, b = data.draw(characters(pa)), data.draw(characters(pb))
    chi = a * b
    if not chi.is_zero:
        assert chi.parity == (pa + pb) % 2
    for w in chi.support:
        assert chi.multiplicity(w) == chi.multiplicity(-w)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_weight_dilation_is_a_ring_map(data):
    k = data.draw(st.integers(1, 4))
    par = data.draw(st.integers(0, 1))
    a, b = (data.draw(characters(par)) for _ in range(2))
    assert (a + b).scale_weights(k) == a.scale_weights(k) + b.scale_weights(k)
    assert (a * b).scale_weights(k) == a.scale_weights(k) * b.scale_weights(k)


# -- partitions and weight sets -----------------------------------------


def test_partition2_basic():
    lam = Partition2(5, 2)
    assert sum(lam) == 7
    assert lam.weight == 3
    with pytest.raises(ValueError):
        Partition2(2, 5)
    with pytest.raises(ValueError):
        Partition2(3, -1)


def test_partition2_regularity():
    assert Partition2(4, 0).is_p_regular(2)
    assert Partition2(5, 2).is_p_regular(2)
    assert not Partition2(3, 3).is_p_regular(2)
    assert Partition2(3, 3).is_p_regular(3)
    assert Partition2(0, 0).is_p_regular(2)


def test_weight_set():
    assert weight_set(6) == (6, 4, 2)
    assert weight_set(7) == (7, 5, 3, 1)
    assert weight_set(1) == (1,)
    for r in range(1, 31):
        assert len(weight_set(r)) == math.ceil(r / 2)
    with pytest.raises(ValueError):
        weight_set(0)


def test_two_row_partitions():
    assert two_row_partitions(4) == (Partition2(4, 0), Partition2(3, 1), Partition2(2, 2))
    assert two_row_partitions(0) == (Partition2(0, 0),)
