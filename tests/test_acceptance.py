"""Acceptance gate.

One test per acceptance criterion, exact arithmetic throughout (tolerance is
zero everywhere).  Each test contributes a single ``[acceptance] <name>:
PASS`` or ``FAIL`` line to the terminal summary so the gate can be read off
a pytest run at a glance.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from conftest import record_acceptance

from lietilt.charring import Partition2, SymCharacter, two_row_partitions
from lietilt.gzeta import gzeta_profile, is_p_power, metabelian_summand
from lietilt.liechar import (
    Verdict,
    l4_weyl2_composition_factors,
    lie_tilting_decomp,
    stohr_summand,
    stohr_tilting_decomp,
)
from lietilt.report import theorem_a_report, theorem_c_report
from lietilt.tiltchar import (
    Basis,
    char_tilting,
    char_weyl,
    decompose,
    is_weyl_simple,
    tensor_power_decomp,
    weyl_twist_identity,
)

from oracles import c_sequence_by_binomials, free_lie_dim, subset_sum_nonzero

PRIMES = (2, 3, 5)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        record_acceptance(name, False)
        raise
    record_acceptance(name, True)


def test_criterion_1_gzeta_dichotomy():
    with criterion("criterion-1 gzeta-dichotomy"):
        start = time.perf_counter()
        for p in PRIMES:
            for r in range(p, 251, p):
                expected = r - r // p if is_p_power(r, p) else r - 1
                assert gzeta_profile(r, p).dim == expected
        assert time.perf_counter() - start < 1.0


def test_criterion_2_subset_sum_oracle():
    with criterion("criterion-2 subset-sum-oracle"):
        start = time.perf_counter()
        for p in (2, 3, 5, 7, 11, 13):
            for r in range(p, 17, p):
                coeffs = c_sequence_by_binomials(r, p)  # one binomial per entry, not the digit rows
                prof = gzeta_profile(r, p)
                for v in range(1, r + 1):
                    assert prof.weight_space_nonzero(v) == subset_sum_nonzero(coeffs, v, p)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_golden_values():
    with criterion("criterion-3 golden-values"):
        assert tensor_power_decomp(2, 2).entries == {2: 1}
        assert tensor_power_decomp(3, 2).entries == {3: 1, 1: 2}
        assert stohr_tilting_decomp(stohr_summand(1, 1)).entries == {3: 1, 1: 1}
        assert lie_tilting_decomp(6, 2).decomposition.entries == {4: 1, 0: 1}
        factors = l4_weyl2_composition_factors()
        assert factors.entries == {6: 1, 4: 2, 2: 3, 0: 4}
        assert factors.dimension == 18


def test_criterion_4_theorem_a_reproduction():
    with criterion("criterion-4 theorem-a-reproduction"):
        start = time.perf_counter()
        for r in range(7, 25):
            rows = theorem_a_report(r)
            assert all(row.certified for row in rows)
            claimed = {row.partition for row in rows if row.expected}
            want = {
                lam
                for lam in two_row_partitions(r)
                if lam.is_p_regular(2) and lam.lambda2 >= 1
            }
            if is_p_power(r, 2):
                want.discard(Partition2(r - 1, 1))
            assert claimed == want
        assert time.perf_counter() - start < 5.0


def test_criterion_5_structural_identities():
    with criterion("criterion-5 structural-identities"):
        # Clebsch-Gordan in the Weyl basis.
        for m in range(0, 16):
            for n in range(0, m + 1):
                prod = char_weyl(m) * char_weyl(n)
                dec = decompose(prod, Basis.DELTA, r=m + n if m + n else 2, p=2)
                assert dec.entries == {m + n - 2 * j: 1 for j in range(n + 1)}
        # Top tilting summand of a product of tiltings.
        for p in PRIMES:
            for m in range(0, 31):
                for n in range(0, m + 1):
                    prod = char_tilting(m, p) * char_tilting(n, p)
                    dec = decompose(prod, Basis.TILTING, r=m + n if m + n else 2, p=p)
                    assert dec.coefficient(m + n) >= 1
                    assert dec.is_nonnegative
        # Twisted Weyl character identity.
        for p in PRIMES:
            for n in range(1, 13):
                for i in range(0, p - 1):
                    assert weyl_twist_identity(n, i, p)
        # Tensor multiplicities grow with the exponent.
        for p in PRIMES:
            for a in range(1, 21):
                now = tensor_power_decomp(a, p).entries
                nxt = tensor_power_decomp(a + 2, p).entries
                assert all(nxt.get(m, 0) >= c for m, c in now.items())


def test_criterion_6_dimension_conservation():
    with criterion("criterion-6 dimension-conservation"):
        for p in PRIMES:
            for r in range(1, 21):
                tensor = tensor_power_decomp(r, p).entries
                assert sum(c * char_tilting(m, p).dim for m, c in tensor.items()) == 2**r
                if r % p:
                    lie = lie_tilting_decomp(r, p).decomposition.entries
                    total = sum(c * char_tilting(m, p).dim for m, c in lie.items())
                    assert total == free_lie_dim(2, r)


def test_criterion_7_not_tilting_certificates():
    with criterion("criterion-7 not-tilting-certificates"):
        for r in range(7, 24, 2):
            assert lie_tilting_decomp(r, 2).verdict is Verdict.TILTING
        for r in (4, 8):
            assert lie_tilting_decomp(r, 2).verdict is Verdict.NOT_TILTING_CERTIFIED
        for r in range(8, 25, 2):
            assert lie_tilting_decomp(r, 2).verdict is not Verdict.TILTING


def test_criterion_8_metabelian_predicate():
    with criterion("criterion-8 metabelian-predicate"):
        assert metabelian_summand(4, 2) is True
        for p in PRIMES:
            for r in range(2, 101):
                if (r, p) == (4, 2):
                    continue  # settled separately above
                try:
                    value = metabelian_summand(r, p)
                except ValueError:
                    assert is_p_power(r, p) and r > p  # genuinely open cases
                    continue
                assert value == (r == 2 or is_weyl_simple(r - 2, p))


def test_supplement_theorem_c_consistency():
    with criterion("supplement theorem-c-consistency"):
        for r, p in ((9, 3), (27, 3), (10, 5), (50, 5)):
            for row in theorem_c_report(r, p):
                if row.claimed:
                    assert row.char_consistent
