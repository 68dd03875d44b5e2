from __future__ import annotations

import math
import random

import pytest

from lietilt.gzeta import (
    GZetaProfile,
    c_sequence,
    gzeta_dim,
    gzeta_profile,
    is_p_power,
    metabelian_summand,
    theorem_b_predicate,
    weight_nonzero,
)
from lietilt.tiltchar import char_simple, is_weyl_simple

from oracles import subset_sum_nonzero


# -- p-power detection --------------------------------------------------


def test_is_p_power_known():
    assert is_p_power(2, 2)
    assert is_p_power(8, 2)
    assert is_p_power(9, 3)
    assert not is_p_power(1, 2)
    assert not is_p_power(6, 2)
    assert not is_p_power(12, 2)
    assert not is_p_power(6, 3)


# -- coefficient sequences ---------------------------------------------


def test_c_sequence_requires_divisible_degree():
    with pytest.raises(ValueError):
        c_sequence(5, 2)
    with pytest.raises(ValueError):
        c_sequence(8, 3)


def test_c_sequence_matches_signed_binomials():
    for p in (2, 3, 5):
        for r in range(p, 31, p):
            cs = c_sequence(r, p)
            assert len(cs) == r
            for j, c in enumerate(cs):
                assert c == ((-1) ** j * math.comb(r - 1, j)) % p


def test_c_sequence_p_power_rows_are_all_ones():
    # When r = p^m the binomial row C(r-1, j) is (-1)^j mod p, so every
    # signed coefficient collapses to 1.
    for p in (2, 3, 5):
        m = 1
        while p**m <= 250:
            assert set(c_sequence(p**m, p)) == {1}
            m += 1


def test_c_sequence_known_example():
    assert c_sequence(6, 3) == (1, 1, 1, 2, 2, 2)
    assert c_sequence(6, 2) == (1, 1, 0, 0, 1, 1)


# -- weight-space profiles ---------------------------------------------


def test_weight_nonzero_known():
    assert weight_nonzero(8, 2, 4) is False
    assert weight_nonzero(12, 2, 5) is True
    assert weight_nonzero(8, 2, 1) is True


def test_weight_nonzero_validates():
    with pytest.raises(ValueError):
        weight_nonzero(8, 2, 0)
    with pytest.raises(ValueError):
        weight_nonzero(8, 2, 9)
    with pytest.raises(ValueError):
        weight_nonzero(7, 2, 1)


def test_weight_nonzero_matches_subset_sum_oracle():
    for p in (2, 3):
        for r in range(p, 13, p):
            cs = c_sequence(r, p)
            for v in range(1, r + 1):
                assert weight_nonzero(r, p, v) == subset_sum_nonzero(cs, v, p)


def test_weight_nonzero_agrees_with_sampled_subsets_past_exhaustive_range():
    # Past r = 16 the subsets cannot all be listed, so sample them: a nonzero sampled sum
    # must be allowed by the verdict, and a nonzero verdict is witnessed by one swap.
    rng = random.Random(2011)
    zero_verdicts = witnessed = 0
    for p in (2, 3, 5):
        powers = [p**m for m in range(2, 10) if 16 < p**m <= 400]
        for r in powers + rng.sample(range(18 * p, 401, p), 6):
            cs = c_sequence(r, p)
            for v in rng.sample(range(1, r + 1), 8) + [r - 1, r, p * rng.randint(1, r // p)]:
                verdict = weight_nonzero(r, p, v)
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
            assert len(c_sequence(r, p)) == r
            assert prof.dim == sum(prof.weight_space_nonzero(v) for v in range(1, r + 1)) == gzeta_dim(r, p)
            assert prof.dim <= r - 1
            assert prof.weight_space_nonzero(1)
            # v = r never contributes: the full sum is divisible by p.
            assert not prof.weight_space_nonzero(r)
            assert prof.is_p_power == is_p_power(r, p)


def test_gzeta_profile_symmetry():
    # Complementary subsets give opposite sums, so v and r - v agree.
    for p in (2, 3):
        for r in range(p, 37, p):
            prof = gzeta_profile(r, p)
            for v in range(1, r):
                assert prof.weight_space_nonzero(v) == prof.weight_space_nonzero(r - v)


# -- dimensions and the dichotomy --------------------------------------


def test_gzeta_dim_known():
    assert gzeta_dim(8, 2) == 4
    assert gzeta_dim(12, 2) == 11
    assert gzeta_dim(9, 3) == 6
    assert gzeta_dim(4, 2) == 2
    assert gzeta_dim(2, 2) == 1


def test_gzeta_dim_dichotomy():
    for p in (2, 3, 5):
        for r in range(p, 101, p):
            expected = r - r // p if is_p_power(r, p) else r - 1
            assert gzeta_dim(r, p) == expected


def test_gzeta_dim_p_power_matches_simple_character():
    # For r = p^m the count agrees with the dimension of the simple
    # module of highest weight r - 2.
    for p in (2, 3, 5):
        m = 1
        while p**m <= 200:
            r = p**m
            assert gzeta_dim(r, p) == char_simple(r - 2, p).dim
            m += 1


def test_gzeta_validates():
    with pytest.raises(ValueError):
        gzeta_dim(5, 2)
    with pytest.raises(ValueError):
        gzeta_profile(9, 2)


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
