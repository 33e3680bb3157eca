"""Symmetric functions as power-sum coordinate vectors: the m<->p change
of basis, the deformed pairing, and the Jack matrix."""

import math

from conftest import dominates

from wsh import linalg
from wsh.field import RationalFunctionField
from wsh.partitions import partitions_of, z_factor
from wsh.symfunc import SymmetricFunctions

F = RationalFunctionField()
S = SymmetricFunctions(F)


def jack(lam):
    """J_lam in p-coordinates: the nonzero entries of its column."""
    n = sum(lam)
    j = partitions_of(n).index(lam)
    return {
        mu: row[j]
        for mu, row in zip(partitions_of(n), S.jack_matrix(n))
        if row[j] != F.zero
    }


def test_jack_degree_two_closed_forms():
    k = F.kappa
    assert jack((2,)) == {(2,): F.one / k, (1, 1): F.one}
    assert jack((1, 1)) == {(2,): -F.one, (1, 1): F.one}


def test_jack_monomial_unitriangular():
    # in monomials (the columns of p_to_m . C): the coefficient of m_lambda
    # in J_lambda is nonzero, only dominated partitions appear, and
    # [m_(1^n)] J = n! (the last row)
    for n in range(1, 6):
        parts = partitions_of(n)
        M = linalg.mat_mul(S.p_to_m(n), S.jack_matrix(n), F)
        for j, lam in enumerate(parts):
            assert M[j][j] != F.zero
            for mu, row in zip(parts, M):
                if row[j] != F.zero:
                    assert dominates(lam, mu)
        assert M[-1] == [F.from_int(math.factorial(n))] * len(parts)


def test_jack_orthogonality():
    for n in range(1, 6):
        cols = list(zip(*S.jack_matrix(n)))
        for i, u in enumerate(cols):
            for v in cols[i + 1 :]:
                assert S._pairing(n, u, v) == F.zero
            assert S._pairing(n, u, u) != F.zero


def test_pairing_diagonal_on_power_sums():
    # <p_lambda, p_mu> = delta z_lambda / kappa^{len(lambda)}
    k = F.kappa
    for n in range(1, 5):
        parts = partitions_of(n)
        diag = S.gram_diag(n)
        unit = linalg.identity(len(parts), F)
        for i, lam in enumerate(parts):
            expect = F.from_int(z_factor(lam)) / k ** len(lam)
            assert diag[i] == expect
            for j in range(len(parts)):
                assert S._pairing(n, unit[i], unit[j]) == (
                    expect if i == j else F.zero
                )


def test_p_m_roundtrip():
    for n in range(1, 6):
        assert linalg.mat_mul(S.m_to_p(n), S.p_to_m(n), F) == linalg.identity(
            len(partitions_of(n)), F
        )


def test_jack_matrix_inverse():
    for n in range(1, 5):
        M = S.jack_matrix(n)
        Minv = S.jack_matrix_inv(n)
        assert linalg.mat_mul(M, Minv, F) == linalg.identity(len(M), F)


def test_jack_inverse_from_orthogonality_matches_gauss_jordan():
    for n in range(7):
        assert S.jack_matrix_inv(n) == linalg.mat_inv(S.jack_matrix(n), F)
