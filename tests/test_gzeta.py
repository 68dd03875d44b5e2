from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietilt.cli import R_MAX
from lietilt.gzeta import (
    GZetaProfile,
    gzeta_profile,
    is_p_power,
    metabelian_summand,
    theorem_b_predicate,
)
from lietilt.tiltchar import Basis, char_simple, decompose, is_weyl_simple

from oracles import bryant_schocker_pieces, c_sequence_by_binomials, near_top_dim_in_tensor_space, subset_sum_nonzero


# -- p-power detection --------------------------------------------------


def test_is_p_power_known():
    assert is_p_power(2, 2)
    assert is_p_power(8, 2)
    assert is_p_power(9, 3)
    assert not is_p_power(1, 2)
    assert not is_p_power(6, 2)
    assert not is_p_power(12, 2)
    assert not is_p_power(6, 3)


# -- weight-space profiles ---------------------------------------------


def test_weight_space_nonzero_known():
    assert gzeta_profile(8, 2).weight_space_nonzero(4) is False
    assert gzeta_profile(12, 2).weight_space_nonzero(5) is True
    assert gzeta_profile(8, 2).weight_space_nonzero(1) is True


def test_weight_space_nonzero_validates():
    with pytest.raises(ValueError):
        gzeta_profile(8, 2).weight_space_nonzero(0)
    with pytest.raises(ValueError):
        gzeta_profile(8, 2).weight_space_nonzero(9)
    with pytest.raises(ValueError):
        gzeta_profile(7, 2)


def test_weight_space_nonzero_matches_subset_sum_oracle():
    for p in (2, 3):
        for r in range(p, 13, p):
            cs, prof = c_sequence_by_binomials(r, p), gzeta_profile(r, p)
            for v in range(1, r + 1):
                assert prof.weight_space_nonzero(v) == subset_sum_nonzero(cs, v, p)


def test_weight_space_nonzero_agrees_with_sampled_subsets_past_exhaustive_range():
    # Past r = 16 the subsets cannot all be listed, so sample them: a nonzero sampled sum
    # must be allowed by the verdict, and a nonzero verdict is witnessed by one swap.
    rng = random.Random(2011)
    zero_verdicts = witnessed = 0
    for p in (2, 3, 5):
        powers = [p**m for m in range(2, 10) if 16 < p**m <= 400]
        for r in powers + rng.sample(range(18 * p, 401, p), 6):
            cs, prof = c_sequence_by_binomials(r, p), gzeta_profile(r, p)
            for v in rng.sample(range(1, r + 1), 8) + [r - 1, r, p * rng.randint(1, r // p)]:
                verdict = prof.weight_space_nonzero(v)
                for _ in range(12):
                    picked = rng.sample(range(r), v)
                    total = sum(cs[i] for i in picked) % p
                    assert not total or verdict, (r, p, v)
                    if v == r:  # one subset: the sample is exhaustive
                        assert bool(total) == verdict, (r, p)
                    elif verdict and not total:
                        # cs equal on both sides of the split would make cs constant.
                        inside = set(picked)
                        i, j = next((i, j) for i in picked for j in range(r) if j not in inside and cs[i] != cs[j])
                        assert (total - cs[i] + cs[j]) % p, (r, p, v)
                        witnessed += 1
                zero_verdicts += not verdict
    assert zero_verdicts and witnessed  # both directions were exercised


def test_gzeta_profile_invariants():
    for p in (2, 3, 5):
        for r in range(p, 61, p):
            prof = gzeta_profile(r, p)
            assert isinstance(prof, GZetaProfile)
            assert prof.r == r and prof.p == p
            assert prof.dim == sum(prof.weight_space_nonzero(v) for v in range(1, r + 1))
            assert prof.dim <= r - 1
            assert prof.weight_space_nonzero(1)
            # v = r never contributes: the full sum is divisible by p.
            assert not prof.weight_space_nonzero(r)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_gzeta_profile_matches_per_entry_oracle(p):
    # The profile reads the digit rows of r - 1; the oracle builds every entry.
    for r in range(p, 1201, p):
        assert gzeta_profile(r, p).all_equal == (len(set(c_sequence_by_binomials(r, p))) == 1), r


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_gzeta_profile_matches_per_entry_oracle_up_to_r_max(data):
    # At 2039 the degree is p or 2p: the lowest digit p - 1 of r - 1, alone or under a
    # top digit 1.  At 4093 only r = p is drawn.  The profile never calls is_p_power.
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13, 2039, 4093)))
    r = p * data.draw(st.integers(1, R_MAX // p))
    all_equal = gzeta_profile(r, p).all_equal
    assert all_equal == (len(set(c_sequence_by_binomials(r, p))) == 1)
    assert all_equal == is_p_power(r, p)


def test_gzeta_profile_symmetry():
    # Complementary subsets give opposite sums, so v and r - v agree.
    for p in (2, 3):
        for r in range(p, 37, p):
            prof = gzeta_profile(r, p)
            for v in range(1, r):
                assert prof.weight_space_nonzero(v) == prof.weight_space_nonzero(r - v)


# -- dimensions and the dichotomy --------------------------------------


def test_profile_dim_known():
    assert gzeta_profile(8, 2).dim == 4
    assert gzeta_profile(12, 2).dim == 11
    assert gzeta_profile(9, 3).dim == 6
    assert gzeta_profile(4, 2).dim == 2
    assert gzeta_profile(2, 2).dim == 1


def near_top_dims_off_the_oracle(p: int, r_max: int) -> dict[int, tuple[int, int]]:
    """(profile dimension, tensor-space dimension) at each multiple r of p up to r_max where they differ."""
    # The oracle builds the submodule in V^(x)r itself, without the coefficient sequence.
    dims = {r: (gzeta_profile(r, p).dim, near_top_dim_in_tensor_space(r, p)) for r in range(p, r_max + 1, p)}
    return {r: pair for r, pair in dims.items() if pair[0] != pair[1]}


def test_profile_dim_matches_tensor_space_oracle():
    # About r * 2**(r - 1) operations per degree; tests/slow_checks.py goes on to degree 20.
    for p in (2, 3, 5, 7, 11, 13):
        assert near_top_dims_off_the_oracle(p, 16) == {}, p


def test_profile_dim_dichotomy():
    for p in (2, 3, 5):
        for r in range(p, 101, p):
            expected = r - r // p if is_p_power(r, p) else r - 1
            assert gzeta_profile(r, p).dim == expected


def test_profile_dim_p_power_matches_simple_character():
    # For r = p^m the count agrees with the dimension of the simple
    # module of highest weight r - 2.
    for p in (2, 3, 5):
        m = 1
        while p**m <= 200:
            r = p**m
            assert gzeta_profile(r, p).dim == char_simple(r - 2, p).dim
            m += 1


def test_gzeta_validates():
    with pytest.raises(ValueError):
        gzeta_profile(5, 2)
    # The digit rows refuse the degree before the first one is read.
    for r, p in ((9, 2), (4, 3), (0, 3), (-6, 3)):
        with pytest.raises(ValueError, match=rf"^degree must be a positive multiple of {p}, got {r}$"):
            gzeta_profile(r, p)


# -- classification predicates -----------------------------------------


def test_theorem_b_predicate_known():
    assert theorem_b_predicate(3, 2)  # degree coprime to p
    assert theorem_b_predicate(2, 2)  # r = p
    assert not theorem_b_predicate(4, 2)
    assert not theorem_b_predicate(8, 2)
    assert theorem_b_predicate(6, 2)
    assert theorem_b_predicate(12, 2)
    assert theorem_b_predicate(3, 3)
    assert not theorem_b_predicate(9, 3)
    assert theorem_b_predicate(6, 3)


def test_theorem_b_predicate_closed_form():
    for p in (2, 3, 5, 7):
        for r in range(2, 251):
            expected = (r % p != 0) or r == p or not is_p_power(r, p)
            assert theorem_b_predicate(r, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_theorem_b_predicate_matches_bryant_schocker_piece(p):
    # At a multiple r of p, the near-top summand T(r - 2) has a positive
    # coefficient in the tilting piece B_r exactly when r is not a power of p.
    # The piece comes from necklace characters and a tilting elimination, a
    # route that shares no code with the coefficient-sequence engine.  r = p is
    # left out: there B_p = 0, but the predicate is true.
    powers = {p**k for k in range(1, 9)}
    pieces = bryant_schocker_pieces(p, 200)
    for r in range(2 * p, 201, p):
        near_top = decompose(pieces[r], Basis.TILTING, r, p).coefficient(r - 2) > 0
        assert near_top == (r not in powers) == theorem_b_predicate(r, p), r


def test_theorem_b_predicate_validates():
    with pytest.raises(ValueError):
        theorem_b_predicate(1, 2)
    with pytest.raises(ValueError):
        theorem_b_predicate(4, 4)


# -- metabelian summands ------------------------------------------------


def test_metabelian_summand_known():
    assert metabelian_summand(2, 2)
    assert metabelian_summand(2, 3)
    assert metabelian_summand(4, 2)  # settled p-power case
    assert metabelian_summand(3, 2)
    assert metabelian_summand(9, 2)
    assert not metabelian_summand(7, 2)
    assert not metabelian_summand(8, 2)  # settled negative p-power case
    assert metabelian_summand(3, 3)
    assert metabelian_summand(4, 3)
    assert not metabelian_summand(5, 3)


def test_metabelian_summand_formula_for_non_p_powers():
    for p in (2, 3, 5):
        for r in range(2, 101):
            if is_p_power(r, p):
                continue
            expected = r == 2 or is_weyl_simple(r - 2, p)
            assert metabelian_summand(r, p) == expected


def test_metabelian_summand_undecided_p_powers_raise():
    for r, p in ((16, 2), (32, 2), (9, 3), (27, 3), (25, 5)):
        with pytest.raises(ValueError):
            metabelian_summand(r, p)


def test_metabelian_summand_validates():
    with pytest.raises(ValueError):
        metabelian_summand(1, 2)
    with pytest.raises(ValueError):
        metabelian_summand(4, 9)
