"""Partition combinatorics and content power sums."""

import pytest
from conftest import z_factor

from wsh import partitions as pt
from wsh.field import RationalFunctionField
from wsh.partitions import dominates

F = RationalFunctionField()


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > x) for x in range(lam[0]))


def test_partitions_descending_lex():
    assert pt.partitions_of(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )
    assert pt.partitions_of(0) == ((),)


def test_order_refines_dominance():
    for n in range(9):
        parts = pt.partitions_of(n)
        for i, lam in enumerate(parts):
            for mu in parts[i + 1 :]:
                assert not dominates(mu, lam) or mu == lam


def test_dominates():
    assert dominates((4,), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((3, 1), (2, 2))
    assert dominates((2, 2), (2, 1, 1))


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for lam in pt.partitions_of(6):
        assert conjugate(conjugate(lam)) == lam


def test_z_factor():
    assert z_factor((1, 1, 1)) == 6
    assert z_factor((2, 1)) == 2
    assert z_factor((3,)) == 3


def test_boxes_coordinates():
    assert sorted(pt.boxes((2, 1))) == [(0, 0), (0, 1), (1, 0)]


def test_content_power_sum_degree():
    # exponent index 1 gives the number of boxes
    for lam in pt.partitions_of(5):
        assert pt.content_power_sum(lam, 1, F) == F.from_int(5)


def test_content_power_sum_values():
    k = F.kappa
    # boxes of (2,1): contents 0, -1, kappa
    assert pt.content_power_sum((2, 1), 2, F) == k - 1
    # boxes of (1,1): contents 0, kappa
    assert pt.content_power_sum((1, 1), 2, F) == k
    # boxes of (2): contents 0, -1
    assert pt.content_power_sum((2,), 2, F) == F.from_int(-1)
    # the single box of (1) has content 0, so higher sums vanish
    assert pt.content_power_sum((1,), 3, F) == F.zero


def test_add_part():
    assert pt.add_part((3, 1), 2) == (3, 2, 1)
    assert pt.add_part((), 5) == (5,)


def test_invalid_power_raises():
    with pytest.raises(ValueError):
        pt.content_power_sum((1,), 0, F)
