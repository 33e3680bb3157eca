"""Symmetric functions over F as power-sum coordinate vectors, one degree
at a time: the m<->p change of basis, the deformed pairing, the
Laplace-Beltrami operator and the Jack matrix.

A homogeneous symmetric function of degree n is its vector of power-sum
coordinates, indexed by partitions_of(n); operators are matrices on these
vectors.  Column j of the Jack matrix at degree n is J_lambda for the
j-th partition lambda of n.  The Laplace-Beltrami (cut-and-join) operator
D_{0,2} has a closed form in power sums and is triangular under dominance
on the monomial basis (Stanley, Adv. Math. 77 (1989), Thm 3.1), so
J_lambda is its eigenvector m_lambda + (dominated terms), found by one
back-substitution down the lex order, then scaled so the coefficient of
m_(1^n) equals n!.  Its norm under <p_lam, p_mu> = delta * z_lam *
alpha^len (alpha = 1/kappa) is a hook product (Macdonald, Symmetric
Functions, VI (10.16)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .field import RationalFunctionField
from .partitions import (
    add_part,
    boxes,
    dominates,
    multiplicities,
    partitions_of,
    z_factor,
)

_DEGENERATE = "Jack basis degenerates at kappa = %s; rerun with a new kappa value"


class _Degenerate(ArithmeticError):
    """An eigenvalue gap of comparable partitions, or the coefficient of
    m_(1^n), vanishes; only a specialized kappa can make this happen."""


@lru_cache(maxsize=None)
def _p_to_m_int(n: int):
    """Integer matrix: column j = p_{lambda_j} expanded in the m-basis."""
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    cols = []
    for lam in parts:
        expansion = {(): 1}
        for r in lam:
            nxt = {}
            for mu, c in expansion.items():
                for v in set(mu) | {0}:
                    if v == 0:
                        nu = add_part(mu, r)
                    else:
                        lst = list(mu)
                        lst.remove(v)
                        nu = add_part(tuple(lst), v + r)
                    mult = multiplicities(nu)[v + r]
                    nxt[nu] = nxt.get(nu, 0) + c * mult
            expansion = nxt
        col = [0] * len(parts)
        for mu, c in expansion.items():
            col[index[mu]] = c
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(len(parts))) for i in range(len(parts)))


def _m_to_p_frac(n: int):
    """Inverse of _p_to_m_int(n) as Fractions, by back-substitution: p_lam
    expands in m_mu for mu dominating lam, so the matrix is upper
    triangular in the lex order."""
    U = _p_to_m_int(n)
    k = len(U)
    X = [[Fraction(0)] * k for _ in range(k)]
    for j in range(k):
        X[j][j] = Fraction(1, U[j][j])
        for i in range(j - 1, -1, -1):
            Ui = U[i]
            acc = sum(
                (Ui[c] * X[c][j] for c in range(i + 1, j + 1) if Ui[c]), Fraction(0)
            )
            X[i][j] = -acc / Ui[i]
    return X


def _cut_and_join_int(n: int):
    """Twice the D_{0,2} block at degree n as integer pairs: entry (i, j)
    is (c0, c1) with 2 [p_{lambda_i}] D_{0,2} p_{lambda_j} = c0 + c1 kappa.

    On p_lam: joining parts r and s (each pair of positions) gives -2rs,
    cutting a part r into (i, r-i), i = 1..r-1, gives -r kappa each, and
    every part r gives r(r-1)(kappa-1) on the diagonal.
    """
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    mat = [[(0, 0)] * len(parts) for _ in parts]

    def put(mu, j, c0, c1):
        i = index[mu]
        a, b = mat[i][j]
        mat[i][j] = (a + c0, b + c1)

    for j, lam in enumerate(parts):
        diag = sum(r * (r - 1) for r in lam)
        put(lam, j, -diag, diag)
        for a, r in enumerate(lam):
            rest = lam[:a] + lam[a + 1 :]
            for b in range(a, len(rest)):
                s = rest[b]
                put(add_part(rest[:b] + rest[b + 1 :], r + s), j, -2 * r * s, 0)
            for i in range(1, r):
                put(add_part(add_part(rest, i), r - i), j, 0, -r)
    return mat


class SymmetricFunctions:
    """The m<->p matrices, the pairing, the Laplace-Beltrami operator and
    the Jack matrix, cached per degree for one field context."""

    def __init__(self, field):
        self.field = field
        self._p2m = {}
        self._m2p = {}
        self._lb = {}
        self._jack = {}
        self._jack_inv = {}
        self._norms = {}
        self._gram = {}

    # -- transition matrices ---------------------------------------------

    def p_to_m(self, n):
        if n not in self._p2m:
            fi = self.field.from_int
            self._p2m[n] = [[fi(x) for x in row] for row in _p_to_m_int(n)]
        return self._p2m[n]

    def m_to_p(self, n):
        if n not in self._m2p:
            ff = self.field.from_fraction
            self._m2p[n] = [[ff(x) for x in row] for row in _m_to_p_frac(n)]
        return self._m2p[n]

    def gram_diag(self, n):
        """Diagonal of the Jack pairing in the p-basis at degree n."""
        if n not in self._gram:
            alpha = self.field.one / self.field.kappa
            self._gram[n] = [
                self.field.from_int(z_factor(lam)) * alpha ** len(lam)
                for lam in partitions_of(n)
            ]
        return self._gram[n]

    # -- the Laplace-Beltrami operator ---------------------------------------

    def laplace_beltrami(self, n):
        """The D_{0,2} block at degree n in p-coordinates:
        -1/2 sum ij p_{i+j} d_i d_j - kappa/2 sum (i+j) p_i p_j d_{i+j}
        + (kappa-1)/2 sum i(i-1) p_i d_i, with d_i = d/dp_i."""
        if n not in self._lb:
            field = self.field
            fi = field.from_int
            half = field.one / fi(2)
            self._lb[n] = [
                [
                    (fi(c0) + field.kappa * fi(c1)) * half if c0 or c1 else field.zero
                    for c0, c1 in row
                ]
                for row in _cut_and_join_int(n)
            ]
        return self._lb[n]

    # -- Jack basis --------------------------------------------------------

    def jack_matrix(self, n):
        """Columns: J_lambda in p-coordinates, aligned with partitions_of(n)."""
        if n not in self._jack:
            self._jack[n] = self._compute_jack(n)
        return self._jack[n]

    def jack_norms(self, n):
        """<J_lam, J_lam> for lam in partitions_of(n): the product over
        boxes s of (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha), with
        arm a, leg l and alpha = 1/kappa.  Raises where a factor vanishes,
        which only a specialized kappa can make happen."""
        if n not in self._norms:
            field = self.field
            alpha = field.one / field.kappa
            norms = []
            for lam in partitions_of(n):
                norm = field.one
                for x, y in boxes(lam):
                    arm = lam[y] - x - 1
                    leg = sum(1 for r in lam[y + 1 :] if r > x)
                    for f in (alpha * arm + leg + 1, alpha * arm + leg + alpha):
                        if f == field.zero:
                            raise ArithmeticError(_DEGENERATE % field.kappa)
                        norm = norm * f
                norms.append(norm)
            self._norms[n] = norms
        return self._norms[n]

    def jack_matrix_inv(self, n):
        """C^-1 = diag(1/<J_lam,J_lam>) C^T diag(gram_diag(n)), from the
        orthogonality of the Jack basis for the pairing."""
        if n not in self._jack_inv:
            g = self.gram_diag(n)
            self._jack_inv[n] = [
                [x * gi / norm for x, gi in zip(col, g)]
                for col, norm in zip(zip(*self.jack_matrix(n)), self.jack_norms(n))
            ]
        return self._jack_inv[n]

    def _compute_jack(self, n):
        # raises where a hook factor of a norm vanishes at a specialized kappa
        self.jack_norms(n)
        try:
            return self._triangular_eigenvectors(n)
        except _Degenerate:
            if self.field.mode == "exact":
                raise
        # a gap or the m_(1^n) coefficient vanishes at the specialized
        # kappa: build over Q(kappa) and evaluate, never skip a 0/0
        exact = SymmetricFunctions(RationalFunctionField())
        kappa = self.field.kappa
        try:
            return [
                [x.evaluate(kappa) for x in row]
                for row in exact._triangular_eigenvectors(n)
            ]
        except ZeroDivisionError:
            raise ArithmeticError(_DEGENERATE % kappa) from None

    def _triangular_eigenvectors(self, n):
        """m_to_p . C_m, column j of C_m the eigenvector of T = p_to_m .
        D_{0,2} . m_to_p with eigenvalue T_jj and unit coefficient on
        m_{lambda_j}, scaled so its coefficient of m_(1^n) is n!."""
        field = self.field
        zero = field.zero
        parts = partitions_of(n)
        k = len(parts)
        m2p = self.m_to_p(n)
        T = linalg.mat_mul(
            linalg.mat_mul(self.p_to_m(n), self.laplace_beltrami(n), field),
            m2p,
            field,
        )
        # nonzero entries of each row left of the diagonal
        left = [
            [(c, t) for c, t in enumerate(row[:i]) if t != zero]
            for i, row in enumerate(T)
        ]
        nf = field.from_int(factorial(n))
        cols = []
        for j, lam in enumerate(parts):
            eig = T[j][j]
            v = [zero] * k
            v[j] = field.one
            for i in range(j + 1, k):
                rhs = zero
                for c, t in left[i]:
                    if c >= j and v[c] != zero:
                        rhs = rhs + t * v[c]
                if not dominates(lam, parts[i]):
                    # J_lam has no m_mu term for mu not dominated by lam
                    if rhs != zero:
                        raise ArithmeticError(
                            "Laplace-Beltrami operator not triangular under "
                            "dominance at %r" % (parts[i],)
                        )
                    continue
                gap = eig - T[i][i]
                if gap == zero:
                    raise _Degenerate(_DEGENERATE % field.kappa)
                v[i] = rhs / gap
            if v[-1] == zero:
                raise _Degenerate(_DEGENERATE % field.kappa)
            scale = nf / v[-1]
            cols.append([x * scale for x in v])
        return linalg.mat_mul(m2p, [list(r) for r in zip(*cols)], field)
