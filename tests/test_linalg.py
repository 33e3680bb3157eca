"""Exact linear algebra: elimination, spans, kernels, certificates."""

from fractions import Fraction

import pytest

from wsh import linalg
from wsh.field import RationalFunctionField

F = RationalFunctionField()


def fe(n, d=1):
    return F.from_fraction(Fraction(n, d))


def test_mat_inv_roundtrip():
    k = F.kappa
    A = [[k, F.one], [F.one, k]]
    I = linalg.mat_mul(A, linalg.mat_inv(A, F), F)
    assert I == linalg.identity(2, F)


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        linalg.mat_inv([[F.one, F.one], [F.one, F.one]], F)


def test_span_basis_membership():
    b = linalg.SpanBasis(F)
    assert b.add([F.one, F.kappa, F.zero])
    assert b.add([F.zero, F.one, F.one])
    assert not b.add([F.one, F.kappa + 1, F.one])  # dependent
    assert b.dim == 2
    assert b.contains([F.one * 2, F.kappa * 2, F.zero])
    assert not b.contains([F.zero, F.zero, F.one])


def test_rank_of_vectors():
    vecs = [
        [F.one, F.kappa],
        [F.kappa, F.kappa * F.kappa],  # kappa times the first
        [F.zero, F.one],
    ]
    assert linalg.rank_of_vectors(vecs, F) == 2


def test_kernel_vectors_annihilate_originals():
    # regression: kernel coefficients must apply to the ORIGINAL vectors,
    # not the denominator-cleared rows (each row has its own scale)
    k = F.kappa
    v1 = [F.one / k, F.one]
    v2 = [F.one, k]
    v3 = [F.one / (k + 1), k / (k + 1)]
    rank, kernel = linalg.kernel_of_vectors([v1, v2, v3], F)
    assert rank == 1 and len(kernel) == 2
    for coeffs in kernel:
        acc = [F.zero, F.zero]
        for c, v in zip(coeffs, [v1, v2, v3]):
            acc = [a + c * x for a, x in zip(acc, v)]
        assert all(a == F.zero for a in acc)


def test_kernel_dimension_formula():
    vecs = [
        [F.one, F.zero, F.one],
        [F.zero, F.one, F.one],
        [F.one, F.one, F.kappa],
        [F.one, F.one, F.one * 2],  # sum of the first two
    ]
    rank, kernel = linalg.kernel_of_vectors(vecs, F)
    assert rank + len(kernel) == len(vecs)
    assert rank == 3


def test_rank_lower_bound_is_exact_here():
    k = F.kappa
    vecs = [[F.one, k], [k, k * k + 1]]
    assert linalg.rank_lower_bound(vecs) == 2


def test_rank_drops_only_at_special_points():
    k = F.kappa
    # rank 2 generically, rank 1 at kappa = 1
    vecs = [[F.one, F.one], [F.one, k]]
    assert linalg.rank_lower_bound(vecs, Fraction(1)) == 1
    assert linalg.rank_lower_bound(vecs, linalg.CERTIFICATE_POINTS[0]) == 2
    assert linalg.certified_rank_bound(vecs) == 2


def test_clear_denominators_strips_content():
    row = linalg.clear_denominators([fe(2, 3), fe(4, 3)], F)
    assert row == [(1,), (2,)]
