"""Symmetric functions: basis changes, the deformed pairing, Jack basis."""

from wsh.field import RationalFunctionField
from wsh.partitions import partitions_of, z_factor
from wsh.symfunc import SymFunc, SymmetricFunctions

F = RationalFunctionField()
S = SymmetricFunctions(F)


def jack(lam):
    return dict(S.jack_basis(sum(lam)))[lam]


def test_jack_degree_two_closed_forms():
    k = F.kappa
    j2 = jack((2,))
    assert j2.comps == {(2,): F.one / k, (1, 1): F.one}
    j11 = jack((1, 1))
    assert j11.comps == {(2,): -F.one, (1, 1): F.one}


def test_jack_monomial_unitriangular():
    # expanding in monomials: coefficient of m_lambda in J_lambda is nonzero,
    # and only dominated partitions appear; [m_(1^n)] J = n!
    import math

    from wsh.partitions import dominates

    for n in range(1, 6):
        for lam, j in S.jack_basis(n):
            mexp = S.convert(j, "m")
            assert mexp.comps[lam] != F.zero
            for mu in mexp.comps:
                assert dominates(lam, mu)
            assert mexp.comps[(1,) * n] == F.from_int(math.factorial(n))


def test_jack_orthogonality():
    for n in range(1, 6):
        basis = S.jack_basis(n)
        for i, (lam, jl) in enumerate(basis):
            for mu, jm in basis[i + 1 :]:
                assert S.inner_product(jl, jm) == F.zero
            assert S.inner_product(jl, jl) != F.zero


def test_pairing_diagonal_on_power_sums():
    # <p_lambda, p_mu> = delta z_lambda / kappa^{len(lambda)}
    k = F.kappa
    for n in range(1, 5):
        parts = partitions_of(n)
        diag = S.gram_diag(n)
        for i, lam in enumerate(parts):
            expect = F.from_int(z_factor(lam)) / k ** len(lam)
            assert diag[i] == expect
            pl = SymFunc.power_sum(lam, F)
            for mu in parts:
                pm = SymFunc.power_sum(mu, F)
                assert S.inner_product(pl, pm) == (
                    expect if lam == mu else F.zero
                )


def test_p_m_roundtrip():
    for n in range(1, 6):
        for lam in partitions_of(n):
            pl = SymFunc.power_sum(lam, F)
            assert S.convert(S.convert(pl, "m"), "p") == pl


def test_multiply_power_sums_concatenates():
    a = SymFunc.power_sum((2,), F)
    b = SymFunc.power_sum((1,), F)
    assert S.multiply(a, b) == SymFunc.power_sum((2, 1), F)


def test_jack_matrix_inverse():
    from wsh import linalg

    for n in range(1, 5):
        M = S.jack_matrix(n)
        Minv = S.jack_matrix_inv(n)
        assert linalg.mat_mul(M, Minv, F) == linalg.identity(len(M), F)


def test_jack_inverse_from_orthogonality_matches_gauss_jordan():
    from wsh import linalg

    for n in range(7):
        assert S.jack_matrix_inv(n) == linalg.mat_inv(S.jack_matrix(n), F)
