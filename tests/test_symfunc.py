"""Symmetric functions as power-sum coordinate vectors: the m<->p change
of basis, the deformed pairing, the Laplace-Beltrami operator and the Jack
matrix."""

import math
from fractions import Fraction

import pytest
from conftest import jack_matrix_oracle, mat_inv_oracle, pairing

from wsh import linalg
from wsh.field import RationalFunctionField, SpecializedField
from wsh.partitions import content_power_sum, dominates, partitions_of, z_factor
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
                assert pairing(S, n, u, v) == F.zero
            assert pairing(S, n, u, u) != F.zero


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
                assert pairing(S, n, unit[i], unit[j]) == (
                    expect if i == j else F.zero
                )


def test_p_m_roundtrip():
    for n in range(1, 6):
        assert linalg.mat_mul(S.m_to_p(n), S.p_to_m(n), F) == linalg.identity(
            len(partitions_of(n)), F
        )
        assert S.m_to_p(n) == mat_inv_oracle(S.p_to_m(n), F)


def test_jack_matrix_inverse():
    for n in range(1, 5):
        M = S.jack_matrix(n)
        Minv = S.jack_matrix_inv(n)
        assert linalg.mat_mul(M, Minv, F) == linalg.identity(len(M), F)


def test_jack_inverse_from_orthogonality_matches_gauss_jordan():
    for n in range(7):
        assert S.jack_matrix_inv(n) == mat_inv_oracle(S.jack_matrix(n), F)


def test_jack_norm_is_the_hook_product():
    # the hook-product norms equal the pairing of each column with itself
    for n in range(7):
        cols = zip(*S.jack_matrix(n))
        assert S.jack_norms(n) == [pairing(S, n, c, c) for c in cols]


@pytest.mark.parametrize(
    "kappa, nmax", [(None, 6), (Fraction(7, 3), 8), (Fraction(9973, 577), 8)]
)
def test_jack_matches_the_gram_schmidt_oracle(kappa, nmax):
    G = F if kappa is None else SpecializedField(kappa)
    sym, ref = SymmetricFunctions(G), SymmetricFunctions(G)
    for n in range(nmax + 1):
        assert sym.jack_matrix(n) == jack_matrix_oracle(ref, n)


def test_laplace_beltrami_triangular_on_monomials():
    # T = p_to_m . D_{0,2} . m_to_p: an entry (mu, lam) is nonzero only for
    # mu dominated by lam, and the diagonal is the content sum, which the
    # Jack build's back-substitution relies on
    for n in range(8):
        parts = partitions_of(n)
        T = linalg.mat_mul(
            linalg.mat_mul(S.p_to_m(n), S.laplace_beltrami(n), F), S.m_to_p(n), F
        )
        for i, mu in enumerate(parts):
            assert T[i][i] == content_power_sum(mu, 2, F)
            for j, lam in enumerate(parts):
                if T[i][j] != F.zero:
                    assert dominates(lam, mu)


@pytest.mark.parametrize(
    "kappa",
    [
        Fraction(-1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(-5, 3),
        Fraction(-7, 5),
        Fraction(-3, 5),
        Fraction(-7, 2),
        Fraction(7, 3),
        Fraction(9973, 577),
    ],
    ids=str,
)
def test_degenerate_kappa_matches_the_gram_schmidt_oracle(kappa):
    # the same matrix, or an ArithmeticError on both sides; at -5/3, -7/5,
    # -3/5 and -7/2 an eigenvalue gap vanishes and the build evaluates the
    # exact one, at the others a hook factor of the norm may vanish
    G = SpecializedField(kappa)
    for n in range(8):
        try:
            want = jack_matrix_oracle(SymmetricFunctions(G), n)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="rerun with a new kappa"):
                SymmetricFunctions(G).jack_matrix(n)
        else:
            assert SymmetricFunctions(G).jack_matrix(n) == want
