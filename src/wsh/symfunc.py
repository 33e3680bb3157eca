"""Symmetric functions over F as power-sum coordinate vectors, one degree
at a time: the m<->p change of basis, the commuting operators D_{0,l} and
the Jack matrix.

A homogeneous symmetric function of degree n is its vector of power-sum
coordinates, indexed by partitions_of(n); operators are matrices on these
vectors.

D_{0,l} is built from the moments of the Nazarov-Sklyanin Lax operator
(SIGMA 9 (2013) 078) in an integer normalization: L acts on
V_n = sum_i Lambda_{n-i} xi^i with entries in Z[kappa], the moment a_m is
the Lambda_n block of L^m, diagonal on the Jack basis with eigenvalue the
u^-m coefficient of prod over boxes s of phi(u + c(s)), phi(u) =
u(u+kappa-1)/((u-1)(u+kappa)), and the log-derivative of the moments is
a Z-linear combination of the D_{0,l}.  All of it is int arithmetic,
kappa Kronecker-packed in exact mode, with one division per entry at the
end.

Column j of the Jack matrix at degree n is J_lambda for the j-th
partition lambda of n.  D_{0,2} is the Laplace-Beltrami (cut-and-join)
operator, triangular under dominance on the monomial basis (Stanley,
Adv. Math. 77 (1989), Thm 3.1), so J_lambda is its eigenvector m_lambda +
(dominated terms), found by one back-substitution down the lex order,
then scaled so the coefficient of m_(1^n) equals n!.  Its norm under
<p_lam, p_mu> = delta * z_lam * alpha^len (alpha = 1/kappa) is a hook
product (Macdonald, Symmetric Functions, VI (10.16)); the build refuses a
specialized kappa where a factor of it vanishes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import linalg
from .field import RationalFunctionField
from .linalg import _slot_width, _unpack
from .partitions import add_part, boxes, dominates, multiplicities, partitions_of

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


@lru_cache(maxsize=None)
def _lax_rows(n: int):
    """The Lax operator on V_n as sparse integer rows.

    V_n = sum_i Lambda_{n-i} xi^i has the basis xi^i p_mu, mu a partition
    of n - i, listed by i and then in partitions_of order, so the first
    len(partitions_of(n)) elements are Lambda_n itself.  Row t is a tuple
    of (column, c0, c1) for the nonzero entries c0 + c1 kappa of
        L(xi^j p_mu) = sum_{i<j} kappa xi^i p_{mu + (j-i)}
                       + sum_k k m_k(mu) xi^(j+k) p_{mu - (k)}
                       + (1 - kappa) j xi^j p_mu.
    """
    basis = [(i, mu) for i in range(n + 1) for mu in partitions_of(n - i)]
    index = {b: t for t, b in enumerate(basis)}
    rows = [[] for _ in basis]
    for col, (j, mu) in enumerate(basis):
        for i in range(j):
            rows[index[i, add_part(mu, j - i)]].append((col, 0, 1))
        for k, mk in multiplicities(mu).items():
            rest = list(mu)
            rest.remove(k)
            rows[index[j + k, tuple(rest)]].append((col, k * mk, 0))
        if j:
            rows[col].append((col, j, -j))
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def _moment_bound(n: int, lmax: int):
    """A bound on the coefficients of z_m (m <= lmax + 1) and D_{0,l}
    (l <= lmax) at degree n over Z[kappa], following their recursions with
    l1-norms, which are submultiplicative and unchanged by dividing by
    kappa: |a_m| <= R^m, R the largest l1 row sum of L, and
    |(kappa-1)^e - (-1)^e - kappa^e| <= 2^e."""
    d = len(partitions_of(n))
    R = max(sum(abs(c0) + abs(c1) for _, c0, c1 in r) for r in _lax_rows(n))
    Z = [0]
    for m in range(1, lmax + 2):
        Z.append(m * R**m + sum(d * Z[k] * R ** (m - k) for k in range(1, m)))
    D = [0, n]
    for l in range(2, lmax + 1):
        rhs = Z[l + 1] + sum(
            comb(l + 1, j) * 2 ** (l + 1 - j) * D[j + 1] for j in range(l - 1)
        )
        D.append(rhs // (l * (l + 1)))
    return max(Z + D)


class _LaxMoments:
    """The Lax moments at degree n and kappa = P/Q, kept so that a larger
    index extends them (``ints``): Q^(l-1) D_{0,l} for l <= top as int
    matrices, exact over Z[kappa] when Q = 1 and P = 2^w is a Kronecker
    slot wide enough for every coefficient.

    A_m = Q^m a_m, a_m the Lambda_n -> Lambda_n block of L^m; the a_m
    commute, a_1 = 0 and a_2 = kappa n.  The log-derivative z_m =
    m a_m - sum_k z_k a_(m-k) gives, for l >= 1,
        -l(l+1) kappa D_{0,l} = (-1)^l z_(l+1)
            - sum_{j<l-1} C(l+1, j) [(kappa-1)^e - (-1)^e - kappa^e] D_{0,j+1},
    e = l + 1 - j, and everything is scaled by Q^(l+1) to stay in Z.

    Degrees in kappa: the kappa part of L kills Lambda_n, so a_m and z_m
    have degree at most m - 1, and since the kappa^e terms cancel in the
    bracket, D_{0,l} has degree at most l - 1.  Rows are packed into one
    int each, so each step of L^m is a short sum of ints.  Every unpacked
    value is an entry of Q^m z_m(P/Q) (m < top) or of Q^(l-1) D_{0,l}(P/Q),
    so at most _moment_bound(n, top) (|P| + Q)^(top - 1), which fixes the
    slot width for every index up to top.
    """

    def __init__(self, n: int, P: int, Q: int, top: int):
        d = self.d = len(partitions_of(n))
        self.n, self.P, self.Q, self.top = n, P, Q, top
        self.rows = [
            [(col, c0 * Q + c1 * P) for col, c0, c1 in r] for r in _lax_rows(n)
        ]
        w = self.w = _slot_width(_moment_bound(n, top) * (abs(P) + Q) ** (top - 1))
        # X: the V_n rows of L^m on Lambda_n, packed; A[m], Z[m] and W[l]:
        # the packed rows of A_m, Q^m z_m and Q^(l-1) D_{0,l}; Zu[m]: the
        # entries of Q^m z_m
        self.X = [1 << (w * t) if t < d else 0 for t in range(len(self.rows))]
        self.A = [self.X[:d]]
        self.Z, self.Zu = [None], [None]
        self.W = [None]

    def ints(self, l: int):
        """Q^(l-1) D_{0,l} at degree n as an int matrix, 1 <= l <= top."""
        if l > self.top:
            raise ValueError("index %d beyond the slot width's %d" % (l, self.top))
        P, Q, w, d = self.P, self.Q, self.w, self.d
        A, Z, Zu, W, rows = self.A, self.Z, self.Zu, self.W, self.rows
        while len(A) < l + 2:
            X = self.X
            self.X = [sum(c * X[col] for col, c in r) for r in rows]
            A.append(self.X[:d])
        # z_1 = a_1 = 0, so only k >= 2 and m - k >= 2 contribute to the sum
        for m in range(len(Z), l + 2):
            while len(Zu) < m - 1:
                Zu.append([_unpack_row(x, w, d) for x in Z[len(Zu)]])
            zm = [m * x for x in A[m]]
            for k in range(2, m - 1):
                Am = A[m - k]
                for i, zrow in enumerate(Zu[k]):
                    zm[i] -= sum(c * Am[t] for t, c in enumerate(zrow) if c)
            Z.append(zm)
        for j in range(len(W), l + 1):
            rhs = Z[j + 1] if j % 2 == 0 else [-x for x in Z[j + 1]]
            for i in range(j - 1):
                e = j + 1 - i
                c = comb(j + 1, i) * ((P - Q) ** e - (-Q) ** e - P**e)
                rhs = [x - c * y for x, y in zip(rhs, W[i + 1])]
            den = -j * (j + 1) * P * Q
            if any(x % den for x in rhs):
                msg = "D_{0,%d} not integral at degree %d" % (j, self.n)
                raise ArithmeticError(msg)
            W.append([x // den for x in rhs])
        return [_unpack_row(x, w, d) for x in W[l]]


def _unpack_row(x, w, d):
    """The d slots of a packed row."""
    out = _unpack(x, w)
    return out + (0,) * (d - len(out))


# indices of D_{0,l} past the asked one that a new Lax-moment build makes
# room for: the suites ask for l = 1, 2, ... one at a time, and a build
# whose slots fit l + 2 serves the next two misses without starting again
_SPARE_INDICES = 2


class SymmetricFunctions:
    """The m<->p matrices, the commuting operators and the Jack matrix
    for one field context.  The Lax moments are cached per degree; the
    Jack matrix is built at each call, as OpContext keeps the columns it
    reads, and the rest is read once per Jack build."""

    def __init__(self, field):
        self.field = field
        self._lax = {}

    # -- transition matrices ---------------------------------------------

    def p_to_m(self, n):
        return [list(map(self.field.from_int, row)) for row in _p_to_m_int(n)]

    def m_to_p(self, n):
        return [list(map(self.field.from_fraction, row)) for row in _m_to_p_frac(n)]

    # -- the commuting operators D_{0,l} ----------------------------------

    def commuting_ints(self, n, ls):
        """(den, block) of D_{0,l} at degree n in p-coordinates, for each l
        in ls, in the ring of its entries over an int den: integer
        kappa-polynomials (coefficient tuples) over 1 in exact mode, ints
        over Q^(l-1) at kappa = P/Q.  From the moments of the Lax
        operator: no Jack basis, and one division per entry at the end.
        The moments are kept per degree, so a larger l extends them."""
        lax = self._moments(n, max(ls))
        if self.field.mode == "exact":
            w = lax.P.bit_length() - 1  # the moments are taken at kappa = 2^w
            return [
                (1, [[_unpack(x, w) for x in row] for row in lax.ints(l)]) for l in ls
            ]
        return [(lax.Q ** (l - 1), lax.ints(l)) for l in ls]

    def _moments(self, n, lmax):
        """The Lax moments at degree n, with slot widths for index lmax
        or more: an index past the kept ones' widths starts them again,
        with room for _SPARE_INDICES more."""
        lax = self._lax.get(n)
        if lax is None or lmax > lax.top:
            top = lmax + _SPARE_INDICES
            if self.field.mode == "exact":
                P, Q = 1 << _slot_width(_moment_bound(n, top)), 1
            else:
                P, Q = self.field.kappa.numerator, self.field.kappa.denominator
            lax = self._lax[n] = _LaxMoments(n, P, Q, top)
        return lax

    def commuting_blocks(self, n, ls):
        """The blocks of ``commuting_ints`` as field-element matrices."""
        return [
            linalg.decoded(mat, den, self.field)
            for den, mat in self.commuting_ints(n, ls)
        ]

    # -- Jack basis --------------------------------------------------------

    def jack_matrix(self, n):
        """Columns: J_lambda in p-coordinates, aligned with partitions_of(n)."""
        return self._compute_jack(n)

    def _check_hooks(self, n):
        """Raise where a factor of the norm <J_lam, J_lam>, lam a partition
        of n, vanishes: the norm is the product over boxes s of
        (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha), with arm a, leg
        l and alpha = 1/kappa, and only a specialized kappa can make a
        factor vanish."""
        field = self.field
        alpha = field.one / field.kappa
        for lam in partitions_of(n):
            for x, y in boxes(lam):
                arm = lam[y] - x - 1
                leg = sum(1 for r in lam[y + 1 :] if r > x)
                for f in (alpha * arm + leg + 1, alpha * arm + leg + alpha):
                    if f == field.zero:
                        raise ArithmeticError(_DEGENERATE % field.kappa)

    def _compute_jack(self, n):
        self._check_hooks(n)
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
            linalg.mat_mul(self.p_to_m(n), self.commuting_blocks(n, [2])[0], field),
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
