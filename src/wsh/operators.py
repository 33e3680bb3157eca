"""Graded operators on symmetric functions truncated at total degree N.

An operator of rank r is stored per source degree n as a matrix from the
degree-n component to the degree-(n+r) component, both in power-sum
coordinates.  The matrices are kept in the ring their entries lie in, not
in the field: every entry of the D_{r,d} is an integer kappa-polynomial,
up to one int denominator per operator (the z-ratios of the lowering
operators, rational scalars such as the 1/2 of the quadratic relation), so
a block holds Z[kappa] numerators as coefficient tuples in exact mode and
ints at kappa = p/q, over one denominator (GradedOp).  Compose is a ring
matrix product, and sums, scaling and the zero test are ring arithmetic;
the relation checks run at one Kronecker point kappa = 2^W, on ints
(``GradedOp.at_point``).  Field elements appear only where a block is
decoded (``GradedOp.block``): the lowering operators and the tests.  Every
identity check reports the window of source degrees it actually verified;
a pass is always a pass-on-window claim.

The relations of the presentation are not written here: OpContext
realizes the free-algebra relation elements of ``presentation`` on its
raising operators (``realize``) and on its lowering operators
(``realize_negative``).  Only the identities among the derived generators
D_{r,d} are built directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from . import _poly as P
from . import linalg
from .checks import CheckOutcome, zero_check
from .field import FieldElem, SpecializedField, format_poly
from .partitions import add_part, partitions_of
from .presentation import T0, T1, FreeAlgebra, Realization
from .symfunc import SymmetricFunctions


_ONE = (1,)


class WindowError(ValueError):
    """Raised when a truncated identity has an empty validity window."""


# relation ids of the positive suite and the free-algebra relation each
# realizes on operators
FREE_RELATIONS = {
    "def1": "commuting_relation",
    "def2": "cross_relation",
    "def3": "quadratic_relation",
    "def4": "cubic_relation",
    "rank2": "rank2_relation",
    "exchange": "exchange_relation",
}


class GradedOp:
    """Homogeneous operator of a fixed rank: one matrix per source degree
    on its validity window, with its entries in the ring they lie in, all
    over one positive int denominator ``den`` (default 1).

    Exact mode: an entry is an integer kappa-polynomial, a coefficient
    tuple with no trailing zeros (zero is ``()``).  Specialized mode (kappa
    = p/q): an entry is an int.  ``den`` is an int in both: every D_{r,d}
    is integral over Z[kappa] up to a rational scalar, D_{-1,k} included
    (kappa times an adjoint for the Jack pairing), so ``from_field`` and
    ``scale`` refuse a kappa-polynomial denominator.

    ``compose`` is one ring matrix product per block (``linalg.
    ring_product``); ``+``, ``-`` and ``scale`` work entrywise on the
    numerators.  ``block(n)`` decodes one block into field elements, for
    the lowering operators and the tests; the operator algebra never
    does.
    """

    __slots__ = ("rank", "blocks", "field", "den")

    def __init__(self, rank, blocks, field, den=1):
        if not blocks:
            raise WindowError("truncation too small: empty validity window")
        self.rank = rank
        self.blocks = blocks
        self.field = field
        self.den = den

    @classmethod
    def from_field(cls, rank, blocks, field):
        """The operator with the given field-element matrices, over the
        least common denominator of their entries."""
        den, nums = linalg.cleared(
            [x for b in blocks.values() for row in b for x in row], field
        )
        it = iter(nums)
        ring = {
            n: [[next(it) for _ in row] for row in b] for n, b in blocks.items()
        }
        return cls(rank, ring, field, _int_den(den))

    @property
    def window(self):
        return (min(self.blocks), max(self.blocks))

    def block(self, n):
        """The block at source degree n as a matrix of field elements."""
        if n not in self.blocks:
            raise WindowError("degree %d outside operator window" % n)
        return linalg.decoded(self.blocks[n], self.den, self.field)

    def _common(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        if self.field.kappa != other.field.kappa:  # two Kronecker points
            raise ValueError("operators at different values of kappa")
        degs = sorted(set(self.blocks) & set(other.blocks))
        if not degs:
            raise WindowError("truncation too small: empty validity window")
        return degs

    def _combine(self, other, int_op, poly_op):
        """self op other, entrywise with int_op on ints and poly_op on
        integer kappa-polynomials, over the least common multiple of the
        two denominators, self.den·ka = other.den·kb."""
        degs = self._common(other)
        g = gcd(self.den, other.den)
        ka, kb = other.den // g, self.den // g
        exact = self.field.mode == "exact"
        times, op = (_times_poly, poly_op) if exact else (_times_int, int_op)
        blocks = {}
        for n in degs:
            a, b = self.blocks[n], other.blocks[n]
            if ka != 1:
                a = times(a, ka)
            if kb != 1:
                b = times(b, kb)
            blocks[n] = [list(map(op, ra, rb)) for ra, rb in zip(a, b)]
        return GradedOp(self.rank, blocks, self.field, self.den * ka)

    def __add__(self, other):
        return self._combine(other, add, P.padd)

    def __sub__(self, other):
        return self._combine(other, sub, P.psub)

    def scale(self, c):
        """c times the operator, c a field element or an int; ValueError
        when the denominator of c is not an integer."""
        if not c:
            return self._zero()
        if self.field.mode == "specialized":
            m, d, times = c.numerator, c.denominator, _times_int
            g = gcd(m, self.den)
            m //= g
        else:
            m, d = (c.num, _int_den(c.den)) if isinstance(c, FieldElem) else ((c,), 1)
            times = _times_poly
            g = gcd(*m, self.den)
            m = tuple(x // g for x in m)
        blocks = self.blocks
        if m not in (1, _ONE):
            blocks = {n: times(b, m) for n, b in blocks.items()}
        return GradedOp(self.rank, blocks, self.field, self.den // g * d)

    def _zero(self):
        zero = _ring(self.field)[0]
        blocks = {n: [[zero] * len(row) for row in b] for n, b in self.blocks.items()}
        return GradedOp(self.rank, blocks, self.field)

    def zero_extended(self, n):
        """The operator with a zero block added at source degree n."""
        if n in self.blocks:
            return self
        rows, cols = len(partitions_of(n + self.rank)), len(partitions_of(n))
        zero, blocks = _ring(self.field)[0], dict(self.blocks)
        blocks[n] = [[zero] * cols for _ in range(rows)]
        return GradedOp(self.rank, blocks, self.field, self.den)

    def compose(self, other):
        """self after other (operator product self . other)."""
        pairs = [
            (n, n + other.rank) for n in other.blocks if n + other.rank in self.blocks
        ]
        if not pairs:
            raise WindowError("truncation too small: empty validity window")
        if self.field.kappa != other.field.kappa:
            raise ValueError("operators at different values of kappa")
        product = linalg.ring_product(self.field)
        A, B = self.blocks, other.blocks
        blocks = {n: product(A[m], B[n]) for n, m in pairs}
        den = self.den * other.den
        return GradedOp(self.rank + other.rank, blocks, self.field, den)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def is_zero(self):
        return not any(any(row) for b in self.blocks.values() for row in b)

    def first_failing_block(self):
        for n in sorted(self.blocks):
            if any(any(row) for row in self.blocks[n]):
                return n
        return None

    def __eq__(self, other):
        if not isinstance(other, GradedOp) or self.rank != other.rank:
            return False
        return (self - other).is_zero()

    def flatten(self):
        """Row-major concatenation of the block numerators, degree-major,
        fixed partition order: a ring row, ``den`` times the flattened
        operator, for ``SpanBasis.add_row`` and the rank certificates."""
        out = []
        for n in sorted(self.blocks):
            for row in self.blocks[n]:
                out.extend(row)
        return out

    def norm(self):
        """The largest row sum of entry l1-norms: a bound on the l1-norm of
        every entry, and submultiplicative under ``compose``."""
        rows = (row for b in self.blocks.values() for row in b)
        return max(sum(sum(map(abs, x)) for x in row) for row in rows)

    def at_point(self, width):
        """The numerators over 1 at kappa = 2^width, each entry packed
        into one int (``linalg._pack``), over the field of that point; at
        kappa = p/q (width None) the numerators as they are."""
        if width is None:
            return GradedOp(self.rank, self.blocks, self.field)
        pack = linalg._pack
        blocks = {n: [[pack(x, width) for x in r] for r in b] for n, b in self.blocks.items()}
        return GradedOp(self.rank, blocks, SpecializedField(Fraction(1 << width)))

    @staticmethod
    def coordinates(ops):
        """The flattened operators over the least common multiple of
        their denominators (Realization.coordinates)."""
        den = lcm(*(op.den for op in ops))
        times = _times_int if ops[0].field.mode == "specialized" else _times_poly
        return [times([op.flatten()], den // op.den)[0] for op in ops]


def _int_den(den):
    """An operator denominator, an int or a positive constant
    kappa-polynomial, as an int; a nonconstant one is refused."""
    if type(den) is int:
        return den
    if len(den) > 1:
        raise ValueError("operator denominator %s is not an integer" % format_poly(den))
    return den[0]


def _ring(field):
    """The zero and the one of the ring the operator entries lie in."""
    return (0, 1) if field.mode == "specialized" else ((), _ONE)


def _times_int(block, k):
    """An int block times the int k."""
    return [[x * k for x in row] for row in block]


def _times_poly(block, k):
    """A block of integer kappa-polynomials times k, a nonzero int or
    integer kappa-polynomial."""
    if type(k) is tuple:
        if len(k) > 1:
            pmul = P.pmul
            return [[pmul(x, k) for x in row] for row in block]
        (k,) = k
    return [[tuple([a * k for a in x]) for x in row] for row in block]


def zero_or_skip(cid, build) -> CheckOutcome:
    """zero_check of the operator ``build()``; an empty window gives a
    skipped record."""
    try:
        op = build()
    except WindowError as e:
        return skipped(cid, e)
    return zero_check(cid, op)


def skipped(cid, err: WindowError) -> CheckOutcome:
    """The record of a check whose window is empty."""
    return CheckOutcome(cid, (0, -1), "skipped", detail=str(err))


class OpContext:
    """Truncation context: cached Jack bases, generators, and spans."""

    def __init__(self, field, N=8):
        if N < 2:
            raise ValueError("truncation must be >= 2")
        self.field = field
        self.N = N
        self.sym = SymmetricFunctions(field)
        self._mult = {}
        self._sek = {}
        self._drd = {}
        self._dprime = {}
        self._lower = {}
        self._spans = {}
        self._jack = {}
        self.free = FreeAlgebra(field, L=None, K=None)
        self.realize = Realization(
            {T0: self.sekiguchi, T1: self.d1},
            GradedOp.compose,
            self.identity_op,
            coordinates=GradedOp.coordinates,
        )
        self.realize_negative = Realization(
            {T0: self.sekiguchi, T1: self.lowering},
            GradedOp.compose,
            self.identity_op,
            anti=True,
        )

    # -- generators --------------------------------------------------------

    def multiplication(self, l) -> GradedOp:
        """Multiplication by the power sum p_l (rank l, order 0)."""
        if not 1 <= l <= self.N:
            raise WindowError("power-sum degree %d beyond truncation" % l)
        if l not in self._mult:
            zero, one = _ring(self.field)
            blocks = {}
            for n in range(0, self.N - l + 1):
                src = partitions_of(n)
                dst = partitions_of(n + l)
                idx = {lam: i for i, lam in enumerate(dst)}
                mat = [[zero] * len(src) for _ in dst]
                for j, lam in enumerate(src):
                    mat[idx[add_part(lam, l)]][j] = one
                blocks[n] = mat
            self._mult[l] = GradedOp(l, blocks, self.field)
        return self._mult[l]

    def identity_op(self) -> GradedOp:
        """Rank-0 identity on every degree of the truncation window."""
        zero, one = _ring(self.field)
        blocks = {}
        for n in range(self.N + 1):
            k = len(partitions_of(n))
            blocks[n] = [[one if i == j else zero for j in range(k)] for i in range(k)]
        return GradedOp(0, blocks, self.field)

    def sekiguchi(self, l) -> GradedOp:
        """The commuting rank-0 operator D_{0,l}, diagonal on the Jack basis
        with eigenvalue sum-of-content-powers (exponent l-1), built from
        the moments of the Lax operator (``SymmetricFunctions.
        commuting_ints``) with no Jack basis; ``self.sym`` keeps the
        moments per degree, so a larger index extends them."""
        if l < 1:
            raise ValueError("index must be >= 1")
        if l not in self._sek:
            built = [self.sym.commuting_ints(n, [l])[0] for n in range(self.N + 1)]
            blocks = {n: mat for n, (_, mat) in enumerate(built)}
            self._sek[l] = GradedOp(0, blocks, self.field, built[0][0])
        return self._sek[l]

    def d1(self, k) -> GradedOp:
        """Rank-1 generators D_{1,k}: multiplication by p_1 at k = 0, its
        bracket with the (k+1)-st commuting operator otherwise."""
        return self.drd(1, k)

    def drd(self, r, d) -> GradedOp:
        """D_{r,d}: bracket of the (d+1)-st commuting operator with D_{r,0}.

        D_{r,0} is the derived rank-r generator produced by the recursion
        (r-1) D_{r,0} = [D_{1,1}, D_{r-1,0}] starting from D_{1,0} = p_1;
        in closed form it is (-1)^(r-1) times multiplication by p_r (the
        sign comes with the content convention, see content_power_sum).
        """
        if (r, d) not in self._drd:
            if d == 0:
                base = self.multiplication(r)
                if r % 2 == 0:
                    base = base.scale(-self.field.one)
                self._drd[r, d] = base
            else:
                self._drd[r, d] = self.sekiguchi(d + 1).commutator(self.drd(r, 0))
        return self._drd[r, d]

    def dprime(self, r, d) -> GradedOp:
        """D'_{r,d}: d-fold bracket of the order-2 commuting operator with
        D_{r,0}, one bracket on D'_{r,d-1}."""
        if (r, d) not in self._dprime:
            self._dprime[r, d] = (
                self.sekiguchi(2).commutator(self.dprime(r, d - 1))
                if d
                else self.drd(r, 0)
            )
        return self._dprime[r, d]

    def lowering(self, k) -> GradedOp:
        """D_{-1,k}: kappa times the adjoint of d1(k) for the Jack pairing
        (diagonal in power-sum coordinates)."""
        if k not in self._lower:
            field = self.field
            up = self.d1(k)
            blocks = {}
            for n in up.blocks:
                A = up.block(n)
                g_src = self.sym.gram_diag(n)
                g_dst = [field.kappa * g for g in self.sym.gram_diag(n + 1)]
                # adjoint block: p(n) x p(n+1), source degree n+1
                blocks[n + 1] = [
                    [A[j][i] * g_dst[j] / g_src[i] if A[j][i] else field.zero
                     for j in range(len(A))]
                    for i in range(len(A[0]))
                ]
            self._lower[k] = GradedOp.from_field(-1, blocks, field)
        return self._lower[k]

    # -- spectral helpers ---------------------------------------------------

    def jack_eigenvalues(self, op: GradedOp, n):
        """Eigenvalues of a rank-0 block B on the Jack basis, in
        partitions_of(n) order: eig_j when column j of B·C is eig_j times
        column j of the Jack matrix C, and None when it is not.  With c_j
        the cleared columns of C (cached) and img = B·(c_j), a ring product,
        that is img[i][j]·c_j[-1] = img[-1][j]·c_j[i] for every i: the last
        row, p_(1^n), is 1 in every Jack column."""
        if op.rank != 0:
            raise ValueError("rank-0 operator required")
        if n not in op.blocks:
            raise WindowError("degree %d outside operator window" % n)
        if n not in self._jack:
            C = self.sym.jack_matrix(n)
            cols = [linalg.cleared(c, self.field)[1] for c in zip(*C)]
            self._jack[n] = cols, list(zip(*cols))
        cols, C = self._jack[n]
        img = linalg.ring_product(self.field)(op.blocks[n], C)
        elem, times, den = Fraction, mul, op.den
        if self.field.mode == "exact":
            elem, times, den = FieldElem, P.pmul, (op.den,)
        return [
            elem(img[-1][j], times(c[-1], den))
            if all(times(r[j], c[-1]) == times(img[-1][j], x) for r, x in zip(img, c))
            else None
            for j, c in enumerate(cols)
        ]

    # -- relation checks -----------------------------------------------------

    def check_relation(self, rid, *args) -> CheckOutcome:
        """Check a relation by id on its window; an empty window gives a
        skipped record with the same id."""
        cid = rid + ("(%s)" % ",".join(map(str, args)) if args else "")
        return zero_or_skip(cid, lambda: self._relation(rid, *args))

    def _relation(self, rid, *args) -> GradedOp:
        """The operator that relation ``rid`` says is zero: a free-algebra
        relation realized on the raising half at one point (up to a nonzero
        factor), or an identity among the derived generators D_{r,d}."""
        if rid in FREE_RELATIONS:
            return self.realize.point(getattr(self.free, FREE_RELATIONS[rid])(*args))
        if rid == "kl_identity":
            k, l = args
            bracket = self.drd(k, 1).commutator(self.drd(l, 0))
            return bracket - self.drd(k + l, 0).scale(self.field.from_int(k * l))
        if rid == "recursion":
            (l,) = args
            scaled = self.drd(l, 0).scale(self.field.from_int(l - 1))
            return scaled - self.d1(1).commutator(self.drd(l - 1, 0))
        raise ValueError("unknown relation id %r" % rid)

    # -- order filtration --------------------------------------------------

    def filtration_span(self, r, d):
        """Echelonized span of the inductive order filtration piece (rank r,
        order <= d) of the raising half, as flattened operators: the piece
        of order d - 1 extended by the candidates of ``_candidates``."""
        if d < 0:
            return _Span(self.field, ())
        key = (r, d)
        if key not in self._spans:
            below = self.filtration_span(r, d - 1)
            self._spans[key] = _Span(self.field, self._candidates(r, d), below)
        return self._spans[key]

    def _candidates(self, r, d):
        """The products a·b and brackets [D_{1,l}, a] of order d that can
        leave the piece of order d - 1: those whose factors are new at
        their orders (``_Span.new``).  The pieces are nested, so a product
        or bracket with a factor from a lower piece lies in F(r, d - 1)."""
        if r == 1:
            yield self.d1(d)
            return
        for r1 in range(1, r):
            for d1 in range(d + 1):
                for a in self.filtration_span(r1, d1).new:
                    for b in self.filtration_span(r - r1, d - d1).new:
                        yield a.compose(b)
        for l in range(0, d + 2):
            for a in self.filtration_span(r - 1, d - l + 1).new:
                yield self.d1(l).commutator(a)

    def free_monomial_count(self, r, d):
        """Number of monomials of bidegree exactly (rank r, order d) in free
        commutative generators indexed by rank >= 1, order >= 0."""
        return _count_monomials(r, d, 1, 0)

    def leading_term_check(self, r, d) -> CheckOutcome:
        """Membership of D'_{r,d} - r^(d-1) D_{r,d} in the order-(d-1)
        filtration piece; at d = 0 the two generators coincide outright."""
        cid = "leading_term(%d,%d)" % (r, d)
        if d == 0:
            op = self.dprime(r, 0) - self.drd(r, 0)
            return zero_check(cid, op)
        coeff = self.field.from_int(r) ** (d - 1)
        op = self.dprime(r, d) - self.drd(r, d).scale(coeff)
        span = self.filtration_span(r, d - 1)
        if span.contains(op):
            return CheckOutcome(cid, op.window, "pass")
        return CheckOutcome(cid, op.window, "fail")

    def graded_dimension_check(self, r, d) -> CheckOutcome:
        cid = "graded_dim(%d,%d)" % (r, d)
        got = self.filtration_span(r, d).dim - self.filtration_span(r, d - 1).dim
        want = self.free_monomial_count(r, d)
        window = (0, self.N - r)
        if got == want:
            return CheckOutcome(cid, window, "pass", detail="dimension %d" % got)
        return CheckOutcome(
            cid, window, "fail", detail="got %d, expected %d" % (got, want)
        )


class _Span:
    """Echelonized span of flattened graded operators of one rank: the
    span ``below`` (if any) extended by the candidates, and the candidates
    that raised its dimension (``new``)."""

    def __init__(self, field, candidates, below=None):
        self.basis = linalg.SpanBasis(field.mode == "exact")
        if below is not None:
            self.basis.rows = list(below.basis.rows)
        self.new = [op for op in candidates if self.basis.add_row(op.flatten())]

    @property
    def dim(self):
        return self.basis.dim

    def contains(self, op: GradedOp) -> bool:
        return self.basis.contains_row(op.flatten())


def _count_monomials(r, d, min_r, min_d):
    """Multisets of generators (rank, order) >= (min_r, min_d) in lex order
    with given rank and order totals."""
    if r == 0:
        return 1 if d == 0 else 0
    total = 0
    for gr in range(min_r, r + 1):
        d_start = min_d if gr == min_r else 0
        for gd in range(d_start, d + 1):
            total += _count_monomials(r - gr, d - gd, gr, gd)
    return total
