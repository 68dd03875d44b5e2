"""The result records are NamedTuples: read-only, tuple-valued, and the two
with invariants (Partition2, Decomposition) keep them on every path that
builds one."""

from __future__ import annotations

import pytest

from lietilt.charring import Partition2
from lietilt.gzeta import gzeta_profile
from lietilt.liechar import lie_tilting_decomp, stohr_summand
from lietilt.report import theorem_a_report, theorem_c_report
from lietilt.tiltchar import Basis, Decomposition


def _records():
    return [
        Partition2(3, 1),
        Decomposition(Basis.TILTING, {2: 1}, 2, 2),
        gzeta_profile(12, 3),
        stohr_summand(1, 1),
        lie_tilting_decomp(6, 2),
        theorem_a_report(7)[0],
        theorem_c_report(25, 5)[0],
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda rec: type(rec).__name__)
def test_record_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0  # no instance dict either


def test_partition2_validates_on_every_path():
    for bad in ((2, 5), (3, -1), (-1, -2)):
        with pytest.raises(ValueError, match="need lambda1 >= lambda2 >= 0"):
            Partition2(*bad)
        with pytest.raises(ValueError):
            Partition2(lambda1=bad[0], lambda2=bad[1])
    with pytest.raises(ValueError):
        Partition2(3, 1)._replace(lambda2=4)
    assert Partition2(3, 1)._replace(lambda2=0) == Partition2(3, 0)


def test_partition2_orders_by_rows():
    mixed = [Partition2(3, 3), Partition2(5, 0), Partition2(4, 1), Partition2(3, 2), Partition2(6, 0), Partition2(4, 2)]
    assert sorted(mixed) == [Partition2(3, 2), Partition2(3, 3), Partition2(4, 1), Partition2(4, 2), Partition2(5, 0),
                             Partition2(6, 0)]
    assert Partition2(3, 1) < Partition2(3, 2) < Partition2(4, 0)
    assert max(mixed) == Partition2(6, 0)


def test_partition2_is_a_tuple_of_its_rows():
    lam = Partition2(3, 1)
    assert repr(lam) == "Partition2(lambda1=3, lambda2=1)"
    assert lam == (3, 1) and hash(lam) == hash((3, 1))
    a, b = lam
    assert (a, b) == (lam.lambda1, lam.lambda2) == (lam[0], lam[1])
    assert lam._asdict() == {"lambda1": 3, "lambda2": 1}
    assert Partition2._fields == ("lambda1", "lambda2")


def test_directly_built_decomposition_entries_are_read_only():
    given = {2: 1}
    dec = Decomposition(Basis.TILTING, given, 2, 2)
    with pytest.raises(TypeError):
        dec.entries[2] = 5
    given[2] = 7  # the record holds its own copy
    assert dec.entries == {2: 1}
    swapped = dec._replace(entries={0: 3})
    with pytest.raises(TypeError):
        swapped.entries[0] = 4
    assert swapped == (Basis.TILTING, {0: 3}, 2, 2)
    assert repr(dec) == "Decomposition(basis=<Basis.TILTING: 'tilting'>, entries=mappingproxy({2: 1}), r=2, p=2)"
