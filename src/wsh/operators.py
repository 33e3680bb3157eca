"""Graded operators on symmetric functions truncated at total degree N.

An operator of rank r is stored per source degree n as an exact matrix
from the degree-n component to the degree-(n+r) component, both in
power-sum coordinates.  Every identity check reports the window of source
degrees it actually verified; a pass is always a pass-on-window claim.

The relations of the presentation are not written here: OpContext
realizes the free-algebra relation elements of ``presentation`` on its
raising operators (``realize``) and on its lowering operators
(``realize_negative``).  Only the identities among the derived generators
D_{r,d} are built directly.
"""

from __future__ import annotations

from . import linalg
from .checks import CheckOutcome, zero_check
from .partitions import add_part, partitions_of
from .presentation import T0, T1, FreeAlgebra, Realization
from .symfunc import SymmetricFunctions


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
    """Homogeneous operator of a fixed rank with one exact matrix per
    source degree on its validity window."""

    __slots__ = ("rank", "blocks", "field")

    def __init__(self, rank, blocks, field):
        if not blocks:
            raise WindowError("truncation too small: empty validity window")
        self.rank = rank
        self.blocks = blocks
        self.field = field

    @property
    def window(self):
        return (min(self.blocks), max(self.blocks))

    def block(self, n):
        if n not in self.blocks:
            raise WindowError("degree %d outside operator window" % n)
        return self.blocks[n]

    def _common(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        degs = sorted(set(self.blocks) & set(other.blocks))
        if not degs:
            raise WindowError("truncation too small: empty validity window")
        return degs

    def __add__(self, other):
        degs = self._common(other)
        return GradedOp(
            self.rank,
            {n: linalg.mat_add(self.blocks[n], other.blocks[n]) for n in degs},
            self.field,
        )

    def __sub__(self, other):
        degs = self._common(other)
        return GradedOp(
            self.rank,
            {n: linalg.mat_sub(self.blocks[n], other.blocks[n]) for n in degs},
            self.field,
        )

    def scale(self, c):
        return GradedOp(
            self.rank,
            {n: linalg.mat_scale(b, c) for n, b in self.blocks.items()},
            self.field,
        )

    def compose(self, other):
        """self after other (operator product self . other)."""
        blocks = {}
        for n, b in other.blocks.items():
            m = n + other.rank
            if m in self.blocks:
                blocks[n] = linalg.mat_mul(self.blocks[m], b, self.field)
        if not blocks:
            raise WindowError("truncation too small: empty validity window")
        return GradedOp(self.rank + other.rank, blocks, self.field)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def is_zero(self):
        return all(linalg.mat_is_zero(b, self.field) for b in self.blocks.values())

    def first_failing_block(self):
        for n in sorted(self.blocks):
            if not linalg.mat_is_zero(self.blocks[n], self.field):
                return n
        return None

    def __eq__(self, other):
        if not isinstance(other, GradedOp) or self.rank != other.rank:
            return False
        return (self - other).is_zero()

    def flatten(self):
        """Row-major concatenation of blocks, degree-major, fixed partition
        order; the coordinate vector used by span and rank computations."""
        out = []
        for n in sorted(self.blocks):
            for row in self.blocks[n]:
                out.extend(row)
        return out

    @staticmethod
    def coordinates(ops):
        """The flattened operators (Realization.coordinates)."""
        return [op.flatten() for op in ops]


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
            field = self.field
            blocks = {}
            for n in range(0, self.N - l + 1):
                src = partitions_of(n)
                dst = partitions_of(n + l)
                idx = {lam: i for i, lam in enumerate(dst)}
                mat = [[field.zero] * len(src) for _ in dst]
                for j, lam in enumerate(src):
                    mat[idx[add_part(lam, l)]][j] = field.one
                blocks[n] = mat
            self._mult[l] = GradedOp(l, blocks, field)
        return self._mult[l]

    def identity_op(self) -> GradedOp:
        """Rank-0 identity on every degree of the truncation window."""
        field = self.field
        blocks = {
            n: linalg.identity(len(partitions_of(n)), field)
            for n in range(self.N + 1)
        }
        return GradedOp(0, blocks, field)

    def sekiguchi(self, l) -> GradedOp:
        """The commuting rank-0 operator D_{0,l}, diagonal on the Jack basis
        with eigenvalue sum-of-content-powers (exponent l-1), built from
        the moments of the Lax operator (``SymmetricFunctions.
        commuting_blocks``) with no Jack basis.  One build gives every
        D_{0,m}, m <= l, not yet cached; the moments are not kept."""
        if l < 1:
            raise ValueError("index must be >= 1")
        if l not in self._sek:
            # the cached indices are always 1..len(self._sek)
            missing = range(len(self._sek) + 1, l + 1)
            built = [self.sym.commuting_blocks(n, missing) for n in range(self.N + 1)]
            for i, m in enumerate(missing):
                blocks = {n: mats[i] for n, mats in enumerate(built)}
                self._sek[m] = GradedOp(0, blocks, self.field)
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
        """D'_{r,d}: d-fold bracket of the order-2 commuting operator."""
        if (r, d) not in self._dprime:
            op = self.drd(r, 0)
            for _ in range(d):
                op = self.sekiguchi(2).commutator(op)
            self._dprime[r, d] = op
        return self._dprime[r, d]

    def lowering(self, k) -> GradedOp:
        """D_{-1,k}: kappa times the adjoint of d1(k) for the Jack pairing
        (diagonal in power-sum coordinates)."""
        if k not in self._lower:
            field = self.field
            up = self.d1(k)
            blocks = {}
            for n, A in up.blocks.items():
                g_src = self.sym.gram_diag(n)
                g_dst = self.sym.gram_diag(n + 1)
                rows = len(A[0])  # adjoint block: p(n) x p(n+1), source degree n+1
                mat = [
                    [A[j][i] * g_dst[j] / g_src[i] for j in range(len(A))]
                    for i in range(rows)
                ]
                blocks[n + 1] = mat
            op = GradedOp(-1, blocks, field)
            self._lower[k] = op.scale(field.kappa)
        return self._lower[k]

    # -- spectral helpers ---------------------------------------------------

    def jack_eigenvalues(self, op: GradedOp, n):
        """Eigenvalues of a rank-0 block B on the Jack basis, in
        partitions_of(n) order: eig_j when column j of B·C is eig_j times
        column j of the Jack matrix C, and None when it is not."""
        if op.rank != 0:
            raise ValueError("rank-0 operator required")
        C = self.sym.jack_matrix(n)
        image = linalg.mat_mul(op.block(n), C, self.field)
        eigs = []
        for j in range(len(C)):
            # the last row, p_(1^n), is 1 in every Jack column
            eig = image[-1][j] / C[-1][j]
            if any(row[j] != eig * c[j] for row, c in zip(image, C)):
                eig = None
            eigs.append(eig)
        return eigs

    # -- relation checks -----------------------------------------------------

    def check_relation(self, rid, *args) -> CheckOutcome:
        """Check a relation by id on its window; an empty window gives a
        skipped record with the same id."""
        cid = rid + ("(%s)" % ",".join(map(str, args)) if args else "")
        return zero_or_skip(cid, lambda: self._relation(rid, *args))

    def _relation(self, rid, *args) -> GradedOp:
        """The operator that relation ``rid`` says is zero: a free-algebra
        relation realized on the raising half, or an identity among the
        derived generators D_{r,d}."""
        if rid in FREE_RELATIONS:
            return self.realize(getattr(self.free, FREE_RELATIONS[rid])(*args))
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
        """Echelonized span of the inductive order filtration piece
        (rank r, order <= d) of the raising half, as flattened operators."""
        if d < 0:
            return _Span(self.field, [])
        key = (r, d)
        if key not in self._spans:
            if r == 1:
                ops = [self.d1(k) for k in range(d + 1)]
            else:
                ops = []
                for r1 in range(1, r):
                    r2 = r - r1
                    for d1 in range(d + 1):
                        d2 = d - d1
                        for a in self.filtration_span(r1, d1).ops:
                            for b in self.filtration_span(r2, d2).ops:
                                ops.append(a.compose(b))
                for l in range(0, d + 2):
                    for a in self.filtration_span(r - 1, d - l + 1).ops:
                        ops.append(self.d1(l).commutator(a))
            self._spans[key] = _Span(self.field, ops)
        return self._spans[key]

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
    """Echelonized span of flattened graded operators of one rank."""

    def __init__(self, field, candidates):
        self.basis = linalg.SpanBasis(field)
        self.ops = []
        for op in candidates:
            if self.basis.add(op.flatten()):
                self.ops.append(op)

    @property
    def dim(self):
        return self.basis.dim

    def contains(self, op: GradedOp) -> bool:
        return self.basis.contains(op.flatten())


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
