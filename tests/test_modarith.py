from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietilt.modarith import (
    ConsistencyError,
    PrimeChar,
    divisors,
    mobius,
    poly_power_row,
    witt_bidegree,
    witt_weight_count,
)
from oracles import (
    binom_mod,
    lyndon_count,
    lyndon_second_letter_counts,
    lyndon_words,
    polynomial_power_by_products,
    sieve_mobius,
    sieve_primes,
)


def test_primechar_accepts_primes():
    for p in (2, 3, 5, 7, 11, 97, 101, 10**18 + 3):
        assert int(PrimeChar(p)) == p


# 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5
# and 7, and 318665857834031151167461 one to each of the first 12 primes.
@pytest.mark.parametrize("bad", [-3, 0, 1, 4, 6, 9, 15, 100, 561, 3215031751, 318665857834031151167461])
def test_primechar_rejects_nonprimes(bad):
    with pytest.raises(ValueError):
        PrimeChar(bad)


def test_primechar_matches_sieve():
    primes = set(sieve_primes(10**4))
    for n in range(10**4):
        try:
            PrimeChar(n)
        except ValueError:
            assert n not in primes
        else:
            assert n in primes


def test_primechar_refuses_primes_beyond_exact_range():
    with pytest.raises(ValueError, match="below"):
        PrimeChar(2**89 - 1)  # a Mersenne prime


def test_primechar_idempotent():
    p = PrimeChar(5)
    assert PrimeChar(p) is p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_binom_mod_matches_exact_binomials(p):
    for n in range(41):
        for k in range(n + 1):
            assert binom_mod(n, k, p) == math.comb(n, k) % p


def test_binom_mod_out_of_range_is_zero():
    assert binom_mod(5, 7, 3) == 0
    assert binom_mod(5, -1, 3) == 0


def test_binom_mod_validates_arguments():
    with pytest.raises(ValueError):
        binom_mod(-1, 0, 3)
    with pytest.raises(ValueError):
        binom_mod(4, 2, 6)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binom_mod_prime_power_row_alternates(p):
    # the row above a p-power length is (+1, -1, +1, ...) mod p
    r = p
    while r <= 250:
        for k in range(r):
            assert binom_mod(r - 1, k, p) == (1 if k % 2 == 0 else p - 1)
        r *= p


def test_mobius_small_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_matches_sieve():
    mu = sieve_mobius(2000)
    for n in range(1, 2001):
        assert mobius(n) == mu[n]


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        divisors(0)


def test_witt_weight_count_known_values():
    assert witt_weight_count(1, 0) == 1
    assert witt_weight_count(1, 1) == 1
    assert witt_weight_count(2, 1) == 1
    assert witt_weight_count(2, 0) == 0
    assert witt_weight_count(4, 2) == 1
    assert witt_weight_count(6, 3) == 3


def test_witt_weight_count_matches_lyndon_enumeration():
    for r in range(1, 15):
        counts = lyndon_second_letter_counts(r)
        for i in range(r + 1):
            assert witt_weight_count(r, i) == counts.get(i, 0)


def test_witt_weight_count_symmetric_and_totals():
    for r in range(1, 21):
        total = sum(witt_weight_count(r, i) for i in range(r + 1))
        assert total == lyndon_count(2, r) if r <= 16 else True
        for i in range(r + 1):
            assert witt_weight_count(r, i) == witt_weight_count(r, r - i)


def test_witt_weight_count_validates():
    with pytest.raises(ValueError):
        witt_weight_count(0, 0)
    with pytest.raises(ValueError):
        witt_weight_count(3, 4)


def test_witt_weight_count_checks_the_division(monkeypatch):
    # With mu(d) = 0 for d > 1 the sum at (8, 0) is C(8, 0) = 1, which 8 does not divide.
    monkeypatch.setattr("lietilt.modarith.mobius", lambda d: int(d == 1))
    with pytest.raises(ConsistencyError, match=r"r=8, i=0"):
        witt_weight_count(8, 0)


def test_consistency_error_is_one_class():
    import lietilt
    import lietilt.charring

    assert lietilt.ConsistencyError is lietilt.charring.ConsistencyError is ConsistencyError


def test_witt_bidegree_known_values():
    assert witt_bidegree(1, 0) == 1
    assert witt_bidegree(0, 1) == 1
    assert witt_bidegree(1, 1) == 1
    assert witt_bidegree(2, 1) == 1
    assert witt_bidegree(2, 2) == 1
    assert witt_bidegree(2, 0) == 0
    assert witt_bidegree(0, 3) == 0


def test_witt_bidegree_matches_lyndon_multidegrees():
    for n in range(1, 13):
        by_multidegree = lyndon_second_letter_counts(n)
        for t in range(n + 1):
            assert witt_bidegree(n - t, t) == by_multidegree.get(t, 0)


def test_witt_bidegree_agrees_with_weight_count():
    for s in range(0, 10):
        for t in range(0, 10):
            if s + t >= 1:
                assert witt_bidegree(s, t) == witt_weight_count(s + t, t)


def test_witt_bidegree_validates():
    with pytest.raises(ValueError):
        witt_bidegree(0, 0)
    with pytest.raises(ValueError):
        witt_bidegree(-1, 2)


def test_lyndon_oracle_sanity():
    # necklace numbers on two letters: 2, 1, 2, 3, 6, 9, 18, 30
    assert [lyndon_count(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert list(lyndon_words(2, 2)) == [(0, 1)]


# -- coefficient rows of polynomial powers ------------------------------


def test_poly_power_row_binomial_matches_comb():
    for n in range(301):
        assert poly_power_row((1, 1), n) == [math.comb(n, k) for k in range(n + 1)]


def test_poly_power_row_trinomial_known():
    assert poly_power_row((1, 1, 1), 0) == [1]
    assert poly_power_row((1, 1, 1), 1) == [1, 1, 1]
    assert poly_power_row((1, 1, 1), 3) == [1, 3, 6, 7, 6, 3, 1]


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-6, 6), max_size=5), st.integers(0, 40), st.integers(1, 250))
def test_poly_power_row_matches_repeated_products(tail, n, terms):
    coeffs = [1] + tail
    full = polynomial_power_by_products(coeffs, n)
    assert poly_power_row(coeffs, n) == full
    assert poly_power_row(coeffs, n, terms) == full[:terms]


def test_poly_power_row_validates():
    with pytest.raises(ValueError):
        poly_power_row((1, 1), -1)
    with pytest.raises(ValueError):
        poly_power_row((), 3)
    with pytest.raises(ValueError):
        poly_power_row((2, 1), 3)
    with pytest.raises(ValueError):
        poly_power_row((1, 1), 3, 0)


def test_poly_power_row_refuses_non_exact_division():
    # (1 + y/2)**2 = 1 + y + y**2/4: the division for the y**2 coefficient leaves a remainder.
    with pytest.raises(ValueError, match="not an integer"):
        poly_power_row((1, Fraction(1, 2)), 2)
