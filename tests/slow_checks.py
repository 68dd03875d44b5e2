"""Oracle checks too slow for every test run.

The file name does not match test_*.py, so a plain `pytest` run never
collects this module; run it by path:

    PYTHONPATH=src python -m pytest -q tests/slow_checks.py

Each check widens the range of a tier-1 test that uses the same helper or oracle.
"""

from __future__ import annotations

import pytest

from lietilt.cli import R_MAX
from lietilt.gzeta import gzeta_profile
from lietilt.tiltchar import Basis, decompose

from oracles import bryant_schocker_pieces, c_sequence_by_binomials
from test_gzeta import near_top_dims_off_the_oracle
from test_report import deep_rows_absent_from_bryant_schocker_piece


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
def test_profile_dim_matches_tensor_space_oracle_to_degree_20(p):
    # Tier-1 stops at degree 16: the oracle costs about r * 2**(r - 1) operations per degree.
    assert near_top_dims_off_the_oracle(p, 20) == {}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 2039, 4093])
def test_profile_matches_per_entry_oracle_at_every_degree(p):
    # Tier-1 stops at degree 1200 and draws a few dozen degrees past it; here
    # every multiple of p up to R_MAX is compared, at small primes (many digit
    # rows) and at primes above sqrt(R_MAX).
    # The profile, which reads the digit rows of r - 1 without building the
    # sequence, must find it constant exactly when the oracle's entries are.
    constant = {r: len(set(c_sequence_by_binomials(r, p))) == 1 for r in range(p, R_MAX + 1, p)}
    assert [r for r, want in constant.items() if gzeta_profile(r, p).all_equal != want] == []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lie_power_remainder_is_tilting_to_degree_600(p):
    pieces = bryant_schocker_pieces(p, 600)
    assert [r for r in range(p, 601, p) if not decompose(pieces[r], Basis.TILTING, r, p).is_nonnegative] == []


def test_theorem_a_deep_rows_are_present_in_the_bryant_schocker_piece_to_degree_600():
    assert deep_rows_absent_from_bryant_schocker_piece(600) == []
