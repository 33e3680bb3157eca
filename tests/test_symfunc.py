"""Symmetric functions as power-sum coordinate vectors: the m<->p change
of basis, the deformed pairing, the Laplace-Beltrami operator and the Jack
matrix."""

import math
from fractions import Fraction

import pytest
from conftest import (
    gram_diag,
    identity_matrix,
    jack_matrix_inv_oracle,
    jack_matrix_oracle,
    jack_norms_oracle,
    laplace_beltrami_oracle,
    mat_inv_oracle,
    pairing,
    z_factor,
)

from wsh import linalg
from wsh.field import RationalFunctionField, SpecializedField
from wsh.linalg import _slot_width, _unpack
from wsh.partitions import boxes, content_power_sum, dominates, partitions_of
from wsh.symfunc import (
    SymmetricFunctions,
    _LaxMoments,
    _lax_rows,
    _moment_bound,
    _unpack_row,
)

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
        diag = gram_diag(S, n)
        unit = identity_matrix(len(parts), F)
        for i, lam in enumerate(parts):
            expect = F.from_int(z_factor(lam)) / k ** len(lam)
            assert diag[i] == expect
            for j in range(len(parts)):
                assert pairing(S, n, unit[i], unit[j]) == (
                    expect if i == j else F.zero
                )


def test_p_m_roundtrip():
    for n in range(1, 6):
        assert linalg.mat_mul(S.m_to_p(n), S.p_to_m(n), F) == identity_matrix(
            len(partitions_of(n)), F
        )
        assert S.m_to_p(n) == mat_inv_oracle(S.p_to_m(n), F)


def test_jack_matrix_inverse():
    for n in range(1, 5):
        M = S.jack_matrix(n)
        Minv = jack_matrix_inv_oracle(S, n)
        assert linalg.mat_mul(M, Minv, F) == identity_matrix(len(M), F)


def test_jack_inverse_from_orthogonality_matches_gauss_jordan():
    for n in range(7):
        assert jack_matrix_inv_oracle(S, n) == mat_inv_oracle(S.jack_matrix(n), F)


def test_jack_norm_is_the_hook_product():
    # the hook-product norms equal the pairing of each column with itself
    for n in range(7):
        cols = zip(*S.jack_matrix(n))
        assert jack_norms_oracle(S, n) == [pairing(S, n, c, c) for c in cols]


@pytest.mark.parametrize(
    "kappa, nmax", [(None, 6), (Fraction(7, 3), 8), (Fraction(9973, 577), 8)]
)
def test_jack_matches_the_gram_schmidt_oracle(kappa, nmax):
    G = F if kappa is None else SpecializedField(kappa)
    sym, ref = SymmetricFunctions(G), SymmetricFunctions(G)
    for n in range(nmax + 1):
        assert sym.jack_matrix(n) == jack_matrix_oracle(ref, n)


def test_laplace_beltrami_triangular_on_monomials():
    # the D_{0,2} block the Jack build reads is the cut-and-join operator,
    # and T = p_to_m . D_{0,2} . m_to_p: an entry (mu, lam) is nonzero only
    # for mu dominated by lam, and the diagonal is the content sum, which
    # the Jack build's back-substitution relies on
    for n in range(8):
        parts = partitions_of(n)
        (D2,) = S.commuting_blocks(n, [2])
        assert D2 == laplace_beltrami_oracle(F, n)
        T = linalg.mat_mul(linalg.mat_mul(S.p_to_m(n), D2, F), S.m_to_p(n), F)
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


def moment_eigenvalue(lam, m, field):
    """[u^-m] of the product over boxes s of phi(u + c(s)), phi(u) =
    u(u+kappa-1)/((u-1)(u+kappa)) and c(s) = kappa*y - x, as a power
    series in t = 1/u."""
    k, one = field.kappa, field.one
    series = [one] + [field.zero] * m
    for x, y in boxes(lam):
        c = k * field.from_int(y) - field.from_int(x)
        for a in (c, c + k - one):  # times 1 + a t
            for i in range(m, 0, -1):
                series[i] = series[i] + a * series[i - 1]
        for b in (c - one, c + k):  # over 1 + b t
            for i in range(1, m + 1):
                series[i] = series[i] - b * series[i - 1]
    return series[m]


def test_lax_moments_are_diagonal_on_jack():
    # a_m, the Lambda_n block of L^m, maps J_lam to e_m(lam) J_lam with
    # e_m(lam) = [u^-m] prod_s phi(u + c(s)); L from its sparse rows as a
    # dense matrix over Q(kappa), applied to the Jack columns put in V_n
    for n in range(7):
        rows = _lax_rows(n)
        L = [[F.zero] * len(rows) for _ in rows]
        for t, row in enumerate(rows):
            for col, c0, c1 in row:
                L[t][col] = F.from_int(c0) + F.kappa * F.from_int(c1)
        parts = partitions_of(n)
        C = S.jack_matrix(n)
        X = C + [[F.zero] * len(parts) for _ in rows[len(parts) :]]
        for m in range(1, 9):
            X = linalg.mat_mul(L, X, F)
            eigs = [moment_eigenvalue(lam, m, F) for lam in parts]
            assert X[: len(parts)] == [[c * e for c, e in zip(row, eigs)] for row in C]


def test_exact_commuting_blocks_are_integral():
    # every D_{0,l} block lies in Z[kappa], of degree at most l - 1, which
    # makes Q^(l-1) D_{0,l} an int matrix at kappa = P/Q
    for n in range(7):
        for l, block in enumerate(S.commuting_blocks(n, range(1, 10)), 1):
            for x in (x for row in block for x in row):
                assert x.den == (1,)
                assert len(x.num) <= l


def test_moment_bound_covers_the_unpacked_values():
    # the coefficients of every D_{0,l} over Z[kappa], and the values at
    # kappa = P/Q, lie within the bounds the two slot widths come from
    for n in range(7):
        B = _moment_bound(n, 9)
        for block in S.commuting_blocks(n, range(1, 10)):
            coeffs = [abs(c) for row in block for x in row for c in x.num]
            assert max(coeffs, default=0) <= B
        for P, Q in ((7, 3), (-9973, 577)):
            lax = _LaxMoments(n, P, Q, 9)
            for mat in map(lax.ints, range(1, 10)):
                assert max(abs(x) for row in mat for x in row) <= B * (abs(P) + Q) ** 8


def test_packed_row_product_at_its_slot_bound():
    # sum_t z_t A_t over rows packed as in the Lax build, with every slot
    # of the result at +-bound = d max|z| max|a| for w = _slot_width(bound),
    # and zero slots at the top of a row
    d, z, a = 4, 3**20 + 1, -(5**15)
    bound = d * z * abs(a)
    w = _slot_width(bound)
    A = [[a, -a, a, 0]] * d
    packed = [sum(x << (w * t) for t, x in enumerate(row)) for row in A]
    for zrow in ([z] * d, [-z] * d):
        got = _unpack_row(sum(c * r for c, r in zip(zrow, packed)), w, d)
        want = tuple(sum(c * row[j] for c, row in zip(zrow, A)) for j in range(d))
        assert got == want
        assert max(map(abs, got)) == bound
    assert _unpack_row(0, w, d) == (0,) * d
    assert _unpack(bound << w, w) == (0, bound)
