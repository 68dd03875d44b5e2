from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lietilt.charring import Partition2, SymCharacter, two_row_partitions, weight_set
from lietilt.gzeta import (
    gzeta_profile,
    is_p_power,
    metabelian_summand,
    theorem_b_predicate,
)
from lietilt.liechar import char_lie_power, lie_power_char, lie_tilting_decomp, stohr_pairs, stohr_summand
from lietilt.modarith import (
    ConsistencyError,
    convolve,
    mobius_divisors,
    poly_power_row,
    prime_char,
    witt_weight_count,
)
from lietilt.report import theorem_a_report, theorem_c_report
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
    tilting_bands,
    tilting_weyl_factors,
    weyl_twist_identity,
)
from oracles import (
    binom_mod,
    divisors_of,
    lyndon_count,
    lyndon_second_letter_counts,
    lyndon_words,
    polynomial_power_by_products,
    polynomial_product,
    sieve_mobius,
    sieve_primes,
)


def test_primechar_accepts_primes():
    for p in (2, 3, 5, 7, 11, 97, 101, 10**18 + 3):
        q = prime_char(p)
        assert q == p and type(q) is int


# 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5
# and 7, and 318665857834031151167461 one to each of the first 12 primes.
@pytest.mark.parametrize("bad", [-3, 0, 1, 4, 6, 9, 15, 100, 561, 3215031751, 318665857834031151167461])
def test_primechar_rejects_nonprimes(bad):
    with pytest.raises(ValueError):
        prime_char(bad)


def test_primechar_matches_sieve():
    primes = set(sieve_primes(10**4))
    for n in range(10**4):
        try:
            prime_char(n)
        except ValueError:
            assert n not in primes
        else:
            assert n in primes


def test_primechar_refuses_primes_beyond_exact_range():
    with pytest.raises(ValueError, match="below"):
        prime_char(2**89 - 1)  # a Mersenne prime


def test_primechar_idempotent():
    p = prime_char(5)
    assert prime_char(p) is p


# Every public function that takes a characteristic, called with p in its place.
TAKES_P = {
    "decompose": lambda p: decompose(char_weyl(2), Basis.TILTING, 2, p),
    "tensor_power_decomp": lambda p: tensor_power_decomp(6, p),
    "char_simple": lambda p: char_simple(5, p),
    "is_weyl_simple": lambda p: is_weyl_simple(5, p),
    "tilting_weyl_factors": lambda p: tilting_weyl_factors(6, p),
    "tilting_bands": lambda p: tilting_bands(6, p),
    "char_tilting": lambda p: char_tilting(6, p),
    "basis_char": lambda p: basis_char(Basis.DELTA, 3, p),
    "weyl_twist_identity": lambda p: weyl_twist_identity(2, 0, p),
    "gzeta_profile": lambda p: gzeta_profile(6, p),
    "theorem_b_predicate": lambda p: theorem_b_predicate(6, p),
    "metabelian_summand": lambda p: metabelian_summand(6, p),
    "theorem_c_report": lambda p: theorem_c_report(9, p),
    "lie_tilting_decomp": lambda p: lie_tilting_decomp(6, p),
    "is_p_power": lambda p: is_p_power(8, p),
    "Partition2.is_p_regular": lambda p: Partition2(3, 3).is_p_regular(p),
    "Decomposition": lambda p: Decomposition(Basis.TILTING, {2: 1}, 2, p),
}


@pytest.mark.parametrize("p", [3.7, 2.0, "3"])
@pytest.mark.parametrize("name", list(TAKES_P))
def test_non_integral_p_refused(name, p):
    # A memoized answer for the integral p must not let an equal float through.
    assert tilting_weyl_factors(6, 2) == (6, 4, 2, 0)
    with pytest.raises((TypeError, ValueError)):
        TAKES_P[name](p)


# Every public function that takes a highest weight, a degree or another
# integer (a partition row, a multiplicity, a scale factor), called with n in
# its place; each call is valid for n = 9.
TAKES_DEGREE = {
    "char_weyl": char_weyl,
    "char_simple": lambda n: char_simple(n, 3),
    "is_weyl_simple": lambda n: is_weyl_simple(n, 3),
    "tilting_weyl_factors": lambda n: tilting_weyl_factors(n, 2),
    "tilting_bands": lambda n: tilting_bands(n, 2),
    "char_tilting": lambda n: char_tilting(n, 2),
    "basis_char": lambda n: basis_char(Basis.TILTING, n, 2),
    "decompose": lambda n: decompose(char_weyl(9), Basis.TILTING, n, 3),
    "natural_power_char": natural_power_char,
    "tensor_power_decomp": lambda n: tensor_power_decomp(n, 3),
    "weyl_twist_identity n": lambda n: weyl_twist_identity(n, 0, 3),
    "weyl_twist_identity i": lambda n: weyl_twist_identity(2, n, 11),
    "weight_set": weight_set,
    "two_row_partitions": two_row_partitions,
    "char_lie_power": char_lie_power,
    "lie_power_char": lambda n: lie_power_char(char_weyl(2), n),
    "is_p_power": lambda n: is_p_power(n, 3),
    "gzeta_profile": lambda n: gzeta_profile(n, 3),
    "GZetaProfile.weight_space_nonzero v": lambda n: gzeta_profile(9, 3).weight_space_nonzero(n),
    "theorem_b_predicate": lambda n: theorem_b_predicate(n, 3),
    "metabelian_summand": lambda n: metabelian_summand(n, 2),
    "theorem_c_report": lambda n: theorem_c_report(n, 3),
    "lie_tilting_decomp": lambda n: lie_tilting_decomp(n, 3),
    "stohr_summand s": lambda n: stohr_summand(n, 1),
    "stohr_summand t": lambda n: stohr_summand(1, n),
    "stohr_pairs": stohr_pairs,
    "theorem_a_report": theorem_a_report,
    "Partition2 lambda1": lambda n: Partition2(n, 1),
    "Partition2 lambda2": lambda n: Partition2(11, n),
    "mobius_divisors": mobius_divisors,
    "convolve terms": lambda n: convolve([1, 1], [1, 2, 1], n),
    "witt_weight_count r": lambda n: witt_weight_count(n, 2),
    "witt_weight_count i": lambda n: witt_weight_count(11, n),
    "poly_power_row n": lambda n: poly_power_row([((1, 1), 2), ((1, 1, 1), n)]),
    "poly_power_row terms": lambda n: poly_power_row([((1, 1), 9)], n),
    "SymCharacter weight": lambda n: SymCharacter({n: 1}),
    "SymCharacter multiplicity": lambda n: SymCharacter({1: n}),
    "SymCharacter.from_row top": lambda n: SymCharacter.from_row(n, (1,) * 5),
    "SymCharacter.from_row entry": lambda n: SymCharacter.from_row(2, (1, n)),
    "SymCharacter.scale": lambda n: char_weyl(2).scale(n),
    "SymCharacter.scale_weights": lambda n: char_weyl(2).scale_weights(n),
    "SymCharacter.multiplicity": lambda n: char_weyl(2).multiplicity(n),
    "Decomposition": lambda n: Decomposition(Basis.TILTING, {1: 1}, n, 2),
}


@pytest.mark.parametrize("n", [6.5, 4.0, "4"])
@pytest.mark.parametrize("name", list(TAKES_DEGREE))
def test_non_integral_degree_refused(name, n):
    TAKES_DEGREE[name](9)
    # A memoized answer for the integral weight must not let an equal float through.
    assert tilting_weyl_factors(4, 2) == (4, 2)
    with pytest.raises(TypeError):
        TAKES_DEGREE[name](n)


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
    assert mobius_divisors(1) == [(1, 1)]
    assert mobius_divisors(2) == [(1, 1), (2, -1)]
    assert mobius_divisors(12) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert mobius_divisors(30) == [(1, 1), (2, -1), (3, -1), (5, -1), (6, 1), (10, 1), (15, 1), (30, -1)]


def test_mobius_matches_sieve():
    mu = sieve_mobius(2000)
    for n in range(1, 2001):
        assert mobius_divisors(n) == [(d, mu[d]) for d in divisors_of(n) if mu[d]]


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius_divisors(0)


def test_divisors():
    # Only the squarefree divisors, ascending, each once.
    assert [d for d, _ in mobius_divisors(49)] == [1, 7]
    assert [d for d, _ in mobius_divisors(360)] == [1, 2, 3, 5, 6, 10, 15, 30]
    assert [d for d, _ in mobius_divisors(2**40)] == [1, 2]
    assert [d for d, _ in mobius_divisors(2 * 10007)] == [1, 2, 10007, 20014]


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.integers(1, 30),
)
@example([2], [1, -1, 3], 2)
@example([1, 0, -4, 5], [3], 9)
def test_convolve_matches_schoolbook_product(a, b, terms):
    # Unequal lengths either way round, terms above the full length, zero and negative entries.
    full = polynomial_product(a, b)
    assert convolve(a, b) == full
    assert convolve(a, b, terms) == full[:terms]


def test_convolve_validates():
    for a, b in (([], [1]), ([1], []), ([], [])):
        with pytest.raises(ValueError):
            convolve(a, b)
    with pytest.raises(ValueError):
        convolve([1], [1], 0)


class _Counted(int):
    """An int that tallies the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def _counted_convolve(a, b, terms=None):
    return convolve([_Counted(x) for x in a], [_Counted(y) for y in b], terms)


def _nonzeros(xs):
    return len(xs) - list(xs).count(0)


sparse_coeffs = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(sparse_coeffs, sparse_coeffs, st.one_of(st.none(), st.integers(1, 80)))
@example([1] * 64, [1] + [0] * 127 + [1], 64)  # a dense row times a Weyl factor twisted by 64
@example([1] + [0] * 127 + [1], [1] * 64, 64)
def test_convolve_puts_the_sparser_list_outside(a, b, terms):
    # Each nonzero outer entry costs at most one product per inner entry.
    _Counted.products = 0
    assert _counted_convolve(a, b, terms) == polynomial_product(a, b)[:terms]
    assert _Counted.products <= min(_nonzeros(a), _nonzeros(b)) * max(len(a), len(b))


def test_char_simple_of_a_long_digit_row_takes_one_pass_per_twisted_factor(monkeypatch):
    # char_simple(2**12 - 1, 2) multiplies the product so far by twelve factors (1 + y**(2**i)): each
    # costs one pass over the product, about 4,096 products in all.  With the dense product outside
    # it was about 2.8 million.
    import lietilt.charring

    monkeypatch.setattr(lietilt.charring, "convolve", _counted_convolve)
    _Counted.products = 0
    assert char_simple(2**12 - 1, 2).dim == 2**12
    assert _Counted.products <= 2 * 2**12


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
    # With every Moebius sign +1 the sum at (8, 0) is C(8, 0) + C(4, 0) = 2, which 8 does not divide.
    monkeypatch.setattr("lietilt.modarith.mobius_divisors", lambda n: [(d, 1) for d, _ in mobius_divisors(n)])
    with pytest.raises(ConsistencyError, match=r"r=8, i=0"):
        witt_weight_count(8, 0)


def test_consistency_error_is_one_class():
    import lietilt
    import lietilt.charring

    assert lietilt.ConsistencyError is lietilt.charring.ConsistencyError is ConsistencyError


def test_witt_weight_count_bidegree_known_values():
    # The Lyndon words with s first and t second letters number witt_weight_count(s + t, t),
    # which stohr_summand(s, t) carries as its mult.
    assert [stohr_summand(s, t).mult for s, t in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3))] == [1, 1, 1, 1, 3]
    assert witt_weight_count(1, 0) == witt_weight_count(1, 1) == 1  # the single letters
    assert witt_weight_count(2, 0) == witt_weight_count(3, 3) == 0  # (2, 0) and (0, 3)


def test_witt_weight_count_matches_lyndon_multidegrees():
    for n in range(2, 13):
        by_multidegree = lyndon_second_letter_counts(n)
        for t in range(1, n):
            assert stohr_summand(n - t, t).mult == by_multidegree.get(t, 0)


def test_witt_weight_count_bidegree_validates():
    # witt_weight_count(s + t, t) is defined exactly on the bidegrees s, t >= 0 with s + t >= 1.
    for s in range(-2, 4):
        for t in range(-2, 4):
            if s >= 0 and t >= 0 and s + t >= 1:
                witt_weight_count(s + t, t)
            else:
                with pytest.raises(ValueError):
                    witt_weight_count(s + t, t)


def test_lyndon_oracle_sanity():
    # necklace numbers on two letters: 2, 1, 2, 3, 6, 9, 18, 30
    assert [lyndon_count(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert list(lyndon_words(2, 2)) == [(0, 1)]


# -- coefficient rows of polynomial powers ------------------------------


def test_poly_power_row_binomial_matches_comb():
    for n in range(301):
        assert poly_power_row([((1, 1), n)]) == [math.comb(n, k) for k in range(n + 1)]


def test_poly_power_row_trinomial_known():
    assert poly_power_row([((1, 1, 1), 0)]) == [1]
    assert poly_power_row([((1, 1, 1), 1)]) == [1, 1, 1]
    assert poly_power_row([((1, 1, 1), 3)]) == [1, 3, 6, 7, 6, 3, 1]


# One factor P(y)**n as (P(0), the higher coefficients, n).
FACTOR = st.tuples(st.integers().filter(bool), st.lists(st.integers(-6, 6), max_size=5), st.integers(0, 25))


@settings(deadline=None, max_examples=80)
@given(st.lists(FACTOR, min_size=1, max_size=3), st.integers(1, 250))
@example([(1, [1], 0), (-2, [0, 3], 4)], 3)
def test_poly_power_row_matches_repeated_products(factors, terms):
    pairs = [([head] + tail, n) for head, tail, n in factors]
    full = [1]
    for coeffs, n in pairs:
        full = polynomial_product(full, polynomial_power_by_products(coeffs, n))
    assert poly_power_row(pairs) == full
    assert poly_power_row(pairs, terms) == full[:terms]


def test_poly_power_row_validates():
    with pytest.raises(ValueError):
        poly_power_row([((1, 1), -1)])
    with pytest.raises(ValueError):
        poly_power_row([((), 3)])
    with pytest.raises(ValueError):
        poly_power_row([((0, 1), 3)])
    with pytest.raises(ValueError):
        poly_power_row([((1, 1), 3)], 0)


def test_poly_power_row_refuses_non_exact_division():
    # (1 + y/2)**2 = 1 + y + y**2/4: the division for the y**2 coefficient leaves a remainder.
    with pytest.raises(ValueError, match="not an integer"):
        poly_power_row([((1, Fraction(1, 2)), 2)])


@pytest.mark.parametrize(
    "factor, terms",
    [(((1, 1), -1), None), (((), 3), None), (((0, 1), 3), None), (((0, 1), 0), None), (((1, 1), 3), 0),
     # (1 + y)**2 * (1 + y/2)**2 has y**2 coefficient 1 + 2 + 1/4.
     (((1, Fraction(1, 2)), 2), None)],
)
def test_poly_power_row_refuses_a_bad_second_factor(factor, terms):
    with pytest.raises(ValueError):
        poly_power_row([((1, 1), 2), factor], terms)
