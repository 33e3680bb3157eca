from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from wsh import linalg
from wsh._poly import pmul
from wsh.field import FieldElem, RationalFunctionField
from wsh.linalg import _pack, _slot_width, _unpack
from wsh.multipoly import MultiPoly
from wsh.operators import FREE_RELATIONS, GradedOp, OpContext, WindowError, _int_den
from wsh.partitions import (
    add_part,
    boxes,
    content_power_sum,
    multiplicities,
    partitions_of,
)
from wsh.presentation import T0, T1, FreeAlgebra, Realization
from wsh.shc import G_POWER, CentralRing
from wsh.shuffle import (
    ShuffleElem,
    _divided_difference,
    _packed_product,
    _packed_terms,
)
from wsh.symfunc import SymmetricFunctions


def block(op, n):
    """The block of a GradedOp at source degree n as a matrix of field
    elements; a degree outside its window is a WindowError."""
    if n not in op.blocks:
        raise WindowError("degree %d outside operator window" % n)
    return linalg.decoded(op.blocks[n], op.den, op.field)


def from_field(rank, blocks, field):
    """The GradedOp with the given field-element matrices, over the least
    common denominator of their entries; a kappa-polynomial denominator is
    refused (``operators._int_den``)."""
    den, nums = linalg.cleared(
        [x for b in blocks.values() for row in b for x in row], field
    )
    it = iter(nums)
    ring = {n: [[next(it) for _ in row] for row in b] for n, b in blocks.items()}
    return GradedOp(rank, ring, field, _int_den(den))


def z_factor(lam) -> int:
    """z_lambda = prod_i i^{m_i} m_i! (order of the centralizer in S_n)."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def gram_diag(sym, n):
    """Diagonal of the Jack pairing in the p-basis at degree n, kept per
    SymmetricFunctions and degree."""
    alpha = sym.field.one / sym.field.kappa
    return [
        sym.field.from_int(z_factor(lam)) * alpha ** len(lam)
        for lam in partitions_of(n)
    ]


def column(op, lam):
    """The image of p_lam under op: the nonzero entries of its column,
    keyed by partition."""
    n = sum(lam)
    j = partitions_of(n).index(tuple(lam))
    zero = op.field.zero
    return {
        mu: row[j]
        for mu, row in zip(partitions_of(n + op.rank), block(op, n))
        if row[j] != zero
    }


def pairing(sym, n, u, v):
    """<u, v> for p-coordinate vectors at degree n:
    sum over lambda of u_lambda v_lambda z_lambda alpha^len(lambda)."""
    zero = sym.field.zero
    acc = zero
    for gi, a, b in zip(gram_diag(sym, n), u, v):
        if a != zero and b != zero:
            acc = acc + gi * a * b
    return acc


def jack_matrix_oracle(sym, n):
    """The Jack matrix at degree n by Gram-Schmidt against ``pairing``
    down the dominance order on the monomial basis, scaled so the
    coefficient of m_(1^n) equals n!.  The reference for
    ``SymmetricFunctions.jack_matrix``."""
    field = sym.field
    parts = partitions_of(n)
    m2p = sym.m_to_p(n)
    p2m = sym.p_to_m(n)
    k = len(parts)
    vecs = [None] * k
    norms = [None] * k
    # ascending dominance: orthogonalize starting from the lex-least
    for idx in range(k - 1, -1, -1):
        v = [m2p[r][idx] for r in range(k)]
        for jdx in range(k - 1, idx, -1):
            w = vecs[jdx]
            coeff = pairing(sym, n, v, w) / norms[jdx]
            if coeff != field.zero:
                v = [a - coeff * b for a, b in zip(v, w)]
        norm = pairing(sym, n, v, v)
        if norm == field.zero:
            raise ArithmeticError("orthogonalization pivot vanished")
        vecs[idx] = v
        norms[idx] = norm
    # the coefficient of m_(1^n) is the product with the last row of p2m
    nf = field.from_int(factorial(n))
    last = p2m[k - 1]
    cols = []
    for v in vecs:
        lead = sum((a * x for a, x in zip(last, v)), field.zero)
        cols.append([x * (nf / lead) for x in v])
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def mat_mul_oracle(A, B, field):
    """Entrywise product: every multiply-add is a reduced field element.
    The reference for the fraction-free ``linalg.mat_mul``."""
    if A and len(A[0]) != len(B):
        raise ValueError("dimension mismatch")
    nb = len(B[0]) if B else 0
    zero = field.zero
    out = [[zero] * nb for _ in range(len(A))]
    for i, row in enumerate(A):
        oi = out[i]
        for k, a in enumerate(row):
            if a == zero:
                continue
            bk = B[k]
            for j in range(nb):
                b = bk[j]
                if b != zero:
                    oi[j] = oi[j] + a * b
    return out


def identity_matrix(n, field):
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_is_zero(A, field):
    zero = field.zero
    return all(a == zero for row in A for a in row)


class FieldOp:
    """A graded operator stored as one matrix of field elements per source
    degree and combined entrywise (``mat_add``, ``mat_sub``, ``mat_scale``,
    ``mat_is_zero``, and ``linalg.mat_mul`` for the product).  The
    reference for the int storage of ``GradedOp``."""

    def __init__(self, rank, blocks, field):
        if not blocks:
            raise WindowError("truncation too small: empty validity window")
        self.rank = rank
        self.blocks = blocks
        self.field = field

    @classmethod
    def of(cls, op):
        """The decoded blocks of a GradedOp."""
        return cls(op.rank, {n: block(op, n) for n in op.blocks}, op.field)

    def _common(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        degs = sorted(set(self.blocks) & set(other.blocks))
        if not degs:
            raise WindowError("truncation too small: empty validity window")
        return degs

    def __add__(self, other):
        degs = self._common(other)
        blocks = {n: mat_add(self.blocks[n], other.blocks[n]) for n in degs}
        return FieldOp(self.rank, blocks, self.field)

    def __sub__(self, other):
        degs = self._common(other)
        blocks = {n: mat_sub(self.blocks[n], other.blocks[n]) for n in degs}
        return FieldOp(self.rank, blocks, self.field)

    def scale(self, c):
        blocks = {n: mat_scale(b, c) for n, b in self.blocks.items()}
        return FieldOp(self.rank, blocks, self.field)

    def compose(self, other):
        blocks = {}
        for n, b in other.blocks.items():
            m = n + other.rank
            if m in self.blocks:
                blocks[n] = linalg.mat_mul(self.blocks[m], b, self.field)
        return FieldOp(self.rank + other.rank, blocks, self.field)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def is_zero(self):
        return all(mat_is_zero(b, self.field) for b in self.blocks.values())


class FieldOpContext:
    """OpContext's generators and relation operators built on FieldOp, as
    they were built before operators left the field layer."""

    def __init__(self, field, N):
        self.field = field
        self.N = N
        self.sym = SymmetricFunctions(field)
        self.free = FreeAlgebra(field, L=None, K=None)
        self._cache = {}
        self.realize = Realization(
            {T0: self.sekiguchi, T1: self.d1}, FieldOp.compose, self.identity_op
        )
        self.realize_negative = Realization(
            {T0: self.sekiguchi, T1: self.lowering},
            FieldOp.compose,
            self.identity_op,
            anti=True,
        )

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def multiplication(self, l):
        def build():
            F = self.field
            blocks = {}
            for n in range(0, self.N - l + 1):
                src, dst = partitions_of(n), partitions_of(n + l)
                blocks[n] = [
                    [F.one if add_part(lam, l) == mu else F.zero for lam in src]
                    for mu in dst
                ]
            return FieldOp(l, blocks, F)

        return self._cached(("mult", l), build)

    def identity_op(self):
        F = self.field
        blocks = {
            n: identity_matrix(len(partitions_of(n)), F) for n in range(self.N + 1)
        }
        return FieldOp(0, blocks, F)

    def sekiguchi(self, l):
        return self._cached(
            ("sek", l),
            lambda: FieldOp(
                0,
                {n: self.sym.commuting_blocks(n, [l])[0] for n in range(self.N + 1)},
                self.field,
            ),
        )

    def d1(self, k):
        return self.drd(1, k)

    def drd(self, r, d):
        def build():
            if d:
                return self.sekiguchi(d + 1).commutator(self.drd(r, 0))
            base = self.multiplication(r)
            return base.scale(-self.field.one) if r % 2 == 0 else base

        return self._cached(("drd", r, d), build)

    def dprime(self, r, d):
        def build():
            op = self.drd(r, 0)
            for _ in range(d):
                op = self.sekiguchi(2).commutator(op)
            return op

        return self._cached(("dprime", r, d), build)

    def lowering(self, k):
        def build():
            F = self.field
            blocks = {}
            for n, A in self.d1(k).blocks.items():
                g_src = gram_diag(self.sym, n)
                g_dst = gram_diag(self.sym, n + 1)
                blocks[n + 1] = [
                    [A[j][i] * g_dst[j] / g_src[i] for j in range(len(A))]
                    for i in range(len(A[0]))
                ]
            return FieldOp(-1, blocks, F).scale(F.kappa)

        return self._cached(("lower", k), build)

    def relation(self, rid, *args):
        """OpContext._relation on FieldOps."""
        F = self.field
        if rid in FREE_RELATIONS:
            return self.realize(getattr(self.free, FREE_RELATIONS[rid])(*args))
        if rid == "kl_identity":
            k, l = args
            bracket = self.drd(k, 1).commutator(self.drd(l, 0))
            return bracket - self.drd(k + l, 0).scale(F.from_int(k * l))
        if rid == "recursion":
            (l,) = args
            scaled = self.drd(l, 0).scale(F.from_int(l - 1))
            return scaled - self.d1(1).commutator(self.drd(l - 1, 0))
        raise ValueError(rid)

    def e_operator(self, k, l):
        """[lowering k, raising l] with the vacuum block of the pure
        product, as ShcContext.e_operator."""
        a = self.lowering(k).compose(self.d1(l))
        b = self.d1(l).compose(self.lowering(k))
        blocks = {0: a.blocks[0]}
        for n in sorted(set(a.blocks) & set(b.blocks)):
            blocks[n] = mat_sub(a.blocks[n], b.blocks[n])
        return FieldOp(0, blocks, self.field)


def _difference(i, j, n, field):
    return MultiPoly.variable(i, n, field) - MultiPoly.variable(j, n, field)


def expanded(elem):
    """The symmetric polynomial of a ShuffleElem: each dominant term
    spread over its orbit."""
    terms = {x: c for e, c in elem.terms.items() for x in permutations(e)}
    return MultiPoly(elem.nvars, terms, elem.field, _clean=True)


def extended(poly, nvars, offset=0):
    """poly in nvars variables, its variables shifted up by offset."""
    pad = (0,) * (nvars - poly.nvars - offset)
    terms = {(0,) * offset + e + pad: c for e, c in poly.terms.items()}
    return MultiPoly(nvars, terms, poly.field, _clean=True)


def unpacked_poly(terms, nvars, dens, w, ew, field):
    """The MultiPoly over field of packed terms (``shuffle._packed_terms``)
    divided by the product of dens, every nonzero term unpacked: the full
    counterpart of ``shuffle._dominant_part``."""
    terms = {k: v for k, v in terms.items() if v}
    if w is None:
        coeffs = [Fraction(v, prod(dens)) for v in terms.values()]
    else:
        den = reduce(pmul, dens)
        coeffs = [FieldElem(_unpack(v, w), den) for v in terms.values()]
    mask = (1 << ew) - 1
    exps = [tuple(k >> (i * ew) & mask for i in range(nvars)) for k in terms]
    return MultiPoly(nvars, dict(zip(exps, coeffs)), field, _clean=True)


def packed_terms_of(poly, nums, w, ew):
    """The packed terms of poly, one exponent vector per numerator."""
    return _packed_terms([(_pack(e, ew),) for e in poly.terms], nums, w)


def star_product_full_terms(P, Q, kernel):
    """``shuffle.star_product`` on every monomial, as it was before it kept
    dominant terms: the expansions of P and Q in n variables and H_{r,s}
    cleared and packed term by term, multiplied, put through the r·s
    divided-difference steps and unpacked in full.  Returns the
    MultiPoly."""
    r, s = P.nvars, Q.nvars
    n, field = r + s, P.field
    factors = [
        extended(expanded(P), n),
        kernel.cross_factor(r, s),
        extended(expanded(Q), n, offset=r),
    ]
    images = [linalg.cleared(f.terms.values(), field) for f in factors]
    degree = sum(f.total_degree() for f in factors)
    w = None
    if field.mode == "exact":
        p, h, q = ([abs(x) for num in nums for x in num] for _, nums in images)
        growth = prod(degree + 1 - t for t in range(r * s))
        w = _slot_width(sum(p) * sum(q) * max(h) * growth)
    ew = _slot_width(degree)
    pk, hk, qk = (
        packed_terms_of(f, nums, w, ew) for f, (_, nums) in zip(factors, images)
    )
    G = _packed_product(_packed_product(pk, hk), qk)
    for b in range(r - 1, -1, -1):
        for i in range(b, b + s):
            G = _divided_difference(G, i, ew)
    return unpacked_poly(G, n, [d for d, _ in images], w, ew, field)


def star_product_oracle(P, Q, kernel):
    """Shuffle product with the g = h/z twist by clearing the full
    Vandermonde Δ_n: each shuffle term is multiplied by Δ_n/σ(W), W the
    cross differences, found by lead-term division, and the sum is divided
    by Δ_n.  The reference for ``shuffle.star_product``."""
    field = P.field
    r, s = P.nvars, Q.nvars
    n = r + s
    if r == 0:
        return Q.scale(P.terms.get((), field.zero))
    if s == 0:
        return P.scale(Q.terms.get((), field.zero))
    one = MultiPoly.constant(field.one, n, field)

    def h_of(d):
        out, power = MultiPoly.zero(n, field), one
        for c in kernel.h_coeffs():
            out = out + power * c
            power = power * d
        return out

    base = extended(expanded(P), n) * extended(expanded(Q), n, offset=r)
    hcross, wcross = one, one
    for i in range(r):
        for j in range(r, n):
            d = _difference(i, j, n, field)
            hcross = hcross * h_of(d)
            wcross = wcross * d
    G = hcross * base
    vand = one
    for a in range(n):
        for b in range(a + 1, n):
            vand = vand * _difference(a, b, n, field)
    acc = MultiPoly.zero(n, field)
    for subset in combinations(range(n), r):
        comp = [x for x in range(n) if x not in subset]
        perm = list(subset) + comp  # original position i goes to perm[i]
        acc = acc + G.permute_vars(perm) * vand.divexact(wcross.permute_vars(perm))
    return ShuffleElem(acc.divexact(vand))


def mat_inv_oracle(A, field):
    """Gauss-Jordan inverse over field elements.  The reference for
    ``SymmetricFunctions.m_to_p`` and ``jack_matrix_inv_oracle``."""
    n = len(A)
    zero, one = field.zero, field.one
    work = [list(row) + unit for row, unit in zip(A, identity_matrix(n, field))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != zero), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = one / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != zero:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def jack_norms_oracle(sym, n):
    """<J_lam, J_lam> for lam in partitions_of(n): the product over boxes
    s of (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha), with arm a,
    leg l and alpha = 1/kappa (Macdonald, VI (10.16))."""
    field = sym.field
    alpha = field.one / field.kappa
    norms = []
    for lam in partitions_of(n):
        norm = field.one
        for x, y in boxes(lam):
            arm = lam[y] - x - 1
            leg = sum(1 for r in lam[y + 1 :] if r > x)
            norm = norm * (alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
        norms.append(norm)
    return norms


def jack_matrix_inv_oracle(sym, n):
    """C^-1 = diag(1/<J_lam,J_lam>) C^T diag(gram_diag(n)) for the Jack
    matrix C at degree n, from the orthogonality of the Jack basis."""
    g = gram_diag(sym, n)
    return [
        [x * gi / norm for x, gi in zip(col, g)]
        for col, norm in zip(zip(*sym.jack_matrix(n)), jack_norms_oracle(sym, n))
    ]


def jack_conjugate_oracle(ctx, op, n):
    """C^-1·B·C for the rank-0 block B of ``op`` at degree n and the Jack
    matrix C.  The reference for ``OpContext.jack_eigenvalues``."""
    F = ctx.field
    C = ctx.sym.jack_matrix(n)
    Cinv = jack_matrix_inv_oracle(ctx.sym, n)
    return mat_mul_oracle(Cinv, mat_mul_oracle(block(op, n), C, F), F)


def jack_eigenvalues_oracle(ctx, op, n):
    """Eigenvalues of a rank-0 block B on the Jack basis from the decoded
    product B·C, one field division and p(n) field products per column:
    the construction ``OpContext.jack_eigenvalues`` replaced."""
    C = ctx.sym.jack_matrix(n)
    image = linalg.mat_mul(block(op, n), C, ctx.field)
    eigs = []
    for j in range(len(C)):
        # the last row, p_(1^n), is 1 in every Jack column
        eig = image[-1][j] / C[-1][j]
        if any(row[j] != eig * c[j] for row, c in zip(image, C)):
            eig = None
        eigs.append(eig)
    return eigs


def sekiguchi_conjugation_oracle(sym, l, n, eigs=None):
    """C·diag(eigs)·C^-1 at degree n, C the Jack matrix and eigs the
    content power sums of exponent l-1 unless given.  The reference for
    ``OpContext.sekiguchi`` at N <= 6 and specialized kappa."""
    F = sym.field
    if eigs is None:
        eigs = [content_power_sum(lam, l, F) for lam in partitions_of(n)]
    mid = [[c * e for c, e in zip(row, eigs)] for row in sym.jack_matrix(n)]
    return mat_mul_oracle(mid, jack_matrix_inv_oracle(sym, n), F)


def laplace_beltrami_oracle(field, n):
    """The D_{0,2} block at degree n from the closed-form cut-and-join
    operator -1/2 sum ij p_{i+j} d_i d_j - kappa/2 sum (i+j) p_i p_j d_{i+j}
    + (kappa-1)/2 sum i(i-1) p_i d_i, with d_i = d/dp_i.  On p_lam: joining
    parts r and s (each pair of positions) gives -rs, cutting a part r
    into (i, r-i), i = 1..r-1, gives -r kappa/2 each, and every part r
    gives r(r-1)(kappa-1)/2 on the diagonal.  The reference for
    ``sekiguchi(2)``."""
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    twice = [[(0, 0)] * len(parts) for _ in parts]

    def put(mu, j, c0, c1):
        i = index[mu]
        a, b = twice[i][j]
        twice[i][j] = (a + c0, b + c1)

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
    fi, half = field.from_int, field.one / field.from_int(2)
    return [[(fi(c0) + field.kappa * fi(c1)) * half for c0, c1 in row] for row in twice]


def evaluate_vectors_oracle(vectors, point):
    """Every entry at kappa = point as a Fraction, by Fraction Horner
    (``FieldElem.evaluate``).  With ``fraction_rank_oracle``, the
    reference for the rank over F_p of ``linalg.rank_lower_bound``."""
    return [
        [x.evaluate(point) if isinstance(x, FieldElem) else Fraction(x) for x in v]
        for v in vectors
    ]


def fraction_rank_oracle(rows) -> int:
    """Rank of a list of Fraction rows by Gaussian elimination over Q.
    The reference for the fraction-free rank of ``linalg.SpanBasis``."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pval = prow[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                m = f / pval
                rows[i] = [a - m * b for a, b in zip(rows[i], prow)]
        rank += 1
        r += 1
        col += 1
    return rank


class FieldSpan(linalg.SpanBasis):
    """``linalg.SpanBasis`` fed with field-element vectors, each taken to
    its cleared numerators (``linalg.cleared``) on the way in."""

    def __init__(self, field):
        super().__init__(field.mode == "exact")
        self.field = field

    def add(self, vec) -> bool:
        """Insert a vector; True when it enlarges the span."""
        return self.add_row(linalg.cleared(vec, self.field)[1])

    def contains(self, vec) -> bool:
        return self.contains_row(linalg.cleared(vec, self.field)[1])


def rank_of_vectors(vectors, field) -> int:
    """Rank of field-element vectors by the fraction-free echelon."""
    basis = FieldSpan(field)
    for v in vectors:
        basis.add(v)
    return basis.dim


def kernel_of_vectors(vectors, field):
    """Left kernel of the list: (rank, kernel), kernel holding coefficient
    vectors a with sum a_i v_i = 0, one per dependency.  Each vector is
    cleared, given a unit tail, and reduced against the rows so far; it
    joins them when its vector part is nonzero, and otherwise its tail is
    a dependency on the cleared rows, rescaled to the original vectors.
    The exact reference for the certified relation spans and kernels."""
    if not vectors:
        return 0, []
    m, k = len(vectors[0]), len(vectors)
    basis = FieldSpan(field)
    # zero and one of the row ring, and its map into the field
    if field.mode == "specialized":
        zero, one, to_field = 0, 1, field.from_int
    else:
        zero, one, to_field = (), (1,), FieldElem
    kernel = []
    scales = []  # cleared row = scale * original vector, per vector
    for i, v in enumerate(vectors):
        row = linalg.cleared(v, field)[1]
        j = next((j for j, p in enumerate(row) if p), None)
        scales.append(field.one if j is None else to_field(row[j]) / v[j])
        tail = [zero] * k
        tail[i] = one
        red = basis._reduce_row(row + tail)
        if any(red[:m]):
            basis.add_row(red)
        else:
            coeffs = [to_field(p) * s for p, s in zip(red[m:], scales)]
            kernel.append(coeffs + [field.zero] * (k - len(coeffs)))
    return basis.dim, kernel


class FiltrationOracle:
    """The order filtration of an OpContext with every piece echelonized
    from all of its candidates: the products of the bases of F(r1, d1) and
    F(r2, d2), d1 + d2 = d, and the brackets [D_{1,l}, F(r - 1, d - l + 1)],
    l <= d + 1, with F(1, d) spanned by D_{1,0..d}.  The reference for
    ``OpContext.filtration_span``, which extends F(r, d - 1) by the
    candidates whose factors are new at their orders."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._spans = {}

    def span(self, r, d):
        """(basis, ops): the echelon of F(r, d) and the candidates that
        raised its dimension, a basis of it."""
        ctx = self.ctx
        if d < 0:
            return linalg.SpanBasis(ctx.field.mode == "exact"), []
        if (r, d) not in self._spans:
            if r == 1:
                cands = [ctx.d1(k) for k in range(d + 1)]
            else:
                cands = []
                for r1 in range(1, r):
                    for d1 in range(d + 1):
                        for a in self.span(r1, d1)[1]:
                            for b in self.span(r - r1, d - d1)[1]:
                                cands.append(a.compose(b))
                for l in range(d + 2):
                    for a in self.span(r - 1, d - l + 1)[1]:
                        cands.append(ctx.d1(l).commutator(a))
            basis = linalg.SpanBasis(ctx.field.mode == "exact")
            ops = [op for op in cands if basis.add_row(op.flatten())]
            self._spans[r, d] = basis, ops
        return self._spans[r, d]


class TruncSeries:
    """Power series sum c[i] s^i, exact modulo s^(order+1), with the ring
    operations the oracle series below are built from."""

    __slots__ = ("order", "coeffs", "zero")

    def __init__(self, coeffs, order, zero):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [zero] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order
        self.zero = zero

    @staticmethod
    def constant(c, order, zero):
        return TruncSeries([c], order, zero)

    def _wrap(self, coeffs):
        return TruncSeries(coeffs, self.order, self.zero)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._wrap([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._wrap([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._wrap([-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            # ring scalar
            return self._wrap([a * other for a in self.coeffs])
        out = [self.zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == self.zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b == self.zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return self._wrap(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def shift(self, k):
        """Multiply by s^k."""
        if k == 0:
            return self
        return self._wrap([self.zero] * k + self.coeffs)

    def __repr__(self):
        return "TruncSeries(%r)" % (self.coeffs,)


def series_exp_oracle(x: TruncSeries, one) -> TruncSeries:
    """exp of a series with zero constant term as the Taylor sum of the
    powers x^k / k!: the reference for ``series.series_exp``."""
    if x.coeffs[0] != x.zero:
        raise ValueError("series_exp_oracle requires zero constant term")
    result = TruncSeries.constant(one, x.order, x.zero)
    term = result
    for k in range(1, x.order + 1):
        tx = term * x
        term = tx._wrap([c / k for c in tx.coeffs])
        result = result + term
    return result


def _inv_power_oracle(a, l, order, ring):
    """(1 + a s)^(-l) for l >= 1."""
    f = ring.field
    coeffs = []
    p = f.one
    for k in range(order + 1):
        coeffs.append(ring.one * (f.from_int(comb(l + k - 1, k) if k else 1) * p))
        p = p * (-a)
    return TruncSeries(coeffs, order, ring.zero)


def _log1p_oracle(a, order, ring):
    """log(1 + a s); zero constant term."""
    f = ring.field
    coeffs = [ring.zero]
    p = f.one
    for k in range(1, order + 1):
        p = p * a
        sign = f.one if k % 2 else -f.one
        coeffs.append(ring.one * (sign * p / f.from_int(k)))
    return TruncSeries(coeffs, order, ring.zero)


def _g_difference_oracle(q, l, conv, order, ring):
    """G_l(1 - qs) - G_l(1 + qs) as a series with zero constant term."""
    f = ring.field
    if l == 0:
        return _log1p_oracle(q, order, ring) - _log1p_oracle(-q, order, ring)
    power = l if conv == G_POWER else 1
    diff = _inv_power_oracle(-q, power, order, ring) - _inv_power_oracle(
        q, power, order, ring
    )
    return diff * (f.one / f.from_int(l))


def varphi_series_oracle(l, conv, order, ring):
    """The series multiplying d_{l+1} in the exponent, one G_l difference
    per root q of the cubic kernel: the reference for the d_{l+1} part of
    ``shc.exponent``."""
    f = ring.field
    total = TruncSeries.constant(ring.zero, order, ring.zero)
    for q in (-f.one, f.kappa, f.one - f.kappa):
        total = total + _g_difference_oracle(q, l, conv, order, ring)
    return total.shift(l) if l else total


def phi_series_oracle(l, conv, order, ring):
    """The series multiplying (-1)^(l+1) c_l in the exponent, from
    -log(1 + xi s) at l = 0 and (1 + xi s)^(-p) otherwise: the reference
    for the c_l part of ``shc.exponent``."""
    f = ring.field
    xi = f.kappa - f.one
    if l == 0:
        return -_log1p_oracle(xi, order, ring)
    power = l if conv == G_POWER else 1
    inner = _inv_power_oracle(xi, power, order, ring) - TruncSeries.constant(
        ring.one, order, ring.zero
    )
    return (inner * (f.one / f.from_int(l))).shift(l)


def central_series_oracle(field, M, conv):
    """E_0..E_{M-1} from exp(sum (-1)^(l+1) c_l phi_l) times
    exp(sum d_{l+1} varphi_l), each factor expanded on its own from the
    oracle series: the reference for ``shc.central_series``."""
    ring = CentralRing(field, M)
    cexp = dexp = TruncSeries.constant(ring.zero, M, ring.zero)
    for l in range(M):
        sign = field.one if l % 2 else -field.one
        cexp = cexp + phi_series_oracle(l, conv, M, ring) * (ring.c(l) * sign)
        dexp = dexp + varphi_series_oracle(l, conv, M, ring) * ring.d(l + 1)
    total = series_exp_oracle(cexp, ring.one) * series_exp_oracle(dexp, ring.one)
    xi = field.kappa - field.one
    return [total.coeffs[l + 1] / xi for l in range(M)]


def omega_preset_oracle(eser):
    """c_0 = 0, c_i = -(kappa w)^i in every E_l, one exponent at a time:
    the reference for ``shc.omega_preset``."""
    ring = eser.ring
    f = ring.field
    out = []
    for poly in eser.coeffs:
        terms = {}
        for e, coeff in poly.terms.items():
            if e[ring.c_index(0)]:
                continue  # c_0 = 0 kills the term
            ne = list(e)
            wexp = e[ring.omega_index]
            for i in range(1, ring.M + 1):
                k = e[ring.c_index(i)]
                if k:
                    coeff = coeff * (-(f.kappa**i)) ** k
                    wexp += i * k
                    ne[ring.c_index(i)] = 0
            ne[ring.omega_index] = wexp
            ne = tuple(ne)
            terms[ne] = terms.get(ne, f.zero) + coeff
        out.append(MultiPoly(ring.nvars, terms, f))
    return out


@pytest.fixture(scope="session")
def field():
    return RationalFunctionField()


@pytest.fixture(scope="session")
def ctx6(field):
    """Shared small truncation context for unit tests."""
    return OpContext(field, 6)


@pytest.fixture(scope="session")
def ctx8(field):
    """Reference truncation context (shared with the acceptance suite)."""
    return OpContext(field, 8)
