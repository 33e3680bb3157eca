"""Symmetric shuffle algebra with the cubic-kernel twist.

Degree-n elements are symmetric polynomials in z_1..z_n; the product of a
degree-r and a degree-s element is a sum over (r,s)-shuffles weighted by
g(z_i - z_j) = h(z_i - z_j)/(z_i - z_j) across the two blocks, with

    h(u) = (u + 1 - kappa)(u - 1)(u + kappa).

No rational function is formed.  With G = P·Q·H_{r,s}, H_{r,s} the
h-cross factor and W the product of the cross differences z_i - z_j,

    sum over σ in Sh(r,s) of σ(G/W) = ∂_{w_{r,s}} G,

the divided difference of the Grassmannian permutation of length r·s:
∂_{w_0} F = sum over w in S_n of w(F/Δ_n), ∂_{w_0} = ∂_{w_{r,s}} ∘
∂_{w_0^(r) x w_0^(s)}, and the second factor sends G times the
within-block Vandermondes to r!·s!·G (Macdonald, Notes on Schubert
Polynomials, 1991, ch. II).  The reduced word applies, 1-based, for
b = r, r-1, ..., 1 the steps ∂_b, ∂_{b+1}, ..., ∂_{b+s-1}, with
∂_i f = (f - s_i f)/(z_i - z_{i+1}); star_product gives the width bound.
An element is kept as its coefficients on weakly decreasing exponent
vectors, its coordinates over the monomial symmetric functions m_λ
(Macdonald, Symmetric Functions and Hall Polynomials, I.2): symmetry is
checked once, where a polynomial comes in, and the product spreads the
dominant terms of its factors over their orbits as packed keys only.
The relations checked here are the free-algebra relation elements of
``presentation``, realized with t1[k] going to z^k (ShuffleContext.realize).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import prod

from ._poly import pmul
from .checks import CheckOutcome
from .field import FieldElem
from .linalg import _pack, _slot_width, _unpack, cleared
from .multipoly import MultiPoly
from .operators import WindowError, skipped
from .presentation import T1, FreeAlgebra, Realization, kernel_certificate, t1_word


class Kernel:
    """The cubic kernel h and its reflection k(u) = -h(-u)."""

    def __init__(self, field):
        self.field = field
        self._cross = {}

    def h_coeffs(self):
        """Ascending coefficients of h(u) = u^3 - (k^2-k+1)u - k(1-k)."""
        f = self.field
        kap = f.kappa
        return [
            -(kap * (f.one - kap)),
            -(kap * kap - kap + f.one),
            f.zero,
            f.one,
        ]

    def k_coeffs(self):
        """Ascending coefficients of k(u) = (u-1+kappa)(u+1)(u-kappa)."""
        f = self.field
        kap = f.kappa
        return [
            kap * (f.one - kap),
            -(kap * kap - kap + f.one),
            f.zero,
            f.one,
        ]

    def h_factored_coeffs(self):
        """h expanded from its factored form (u+1-kappa)(u-1)(u+kappa)."""
        f = self.field
        kap = f.kappa
        roots = [kap - f.one, f.one, -kap]  # h(u) = prod (u - root)
        coeffs = [f.one]
        for r in roots:
            nxt = [f.zero] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * r
            coeffs = nxt
        return coeffs

    def h_of(self, u: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(u.nvars, self.field)
        for e, c in enumerate(self.h_coeffs()):
            if c != self.field.zero:
                out = out + u**e * c
        return out

    def cross_factor(self, r, s) -> MultiPoly:
        """H_{r,s} = prod_{i<r<=j} h(z_i - z_j) over the cross pairs
        (0-based i, j); cached per shape (r, s)."""
        H = self._cross.get((r, s))
        if H is None:
            n = r + s
            H = MultiPoly.constant(self.field.one, n, self.field)
            for i in range(r):
                for j in range(r, n):
                    H = H * self.h_of(_difference(i, j, n, self.field))
            self._cross[r, s] = H
        return H


class ShuffleElem:
    """Symmetric polynomial in n variables; degree-n piece of the algebra,
    kept as {weakly decreasing exponent vector: coefficient}.  Only the
    constructor checks symmetry; derived elements come from ``_of``."""

    __slots__ = ("nvars", "terms", "field")

    def __init__(self, poly: MultiPoly):
        if not poly.is_symmetric():
            raise ValueError("shuffle element must be a symmetric polynomial")
        self.nvars, self.field = poly.nvars, poly.field
        self.terms = {
            e: c for e, c in poly.terms.items() if list(e) == sorted(e, reverse=True)
        }

    @classmethod
    def _of(cls, poly):
        """The element whose dominant terms are the terms of poly."""
        el = object.__new__(cls)
        el.nvars, el.terms, el.field = poly.nvars, poly.terms, poly.field
        return el

    def _dominant(self):
        return MultiPoly(self.nvars, self.terms, self.field, _clean=True)

    @staticmethod
    def unit(field):
        return ShuffleElem._of(MultiPoly.constant(field.one, 0, field))

    @staticmethod
    def generator(l, field):
        """z^l in the one-variable piece."""
        return ShuffleElem._of(MultiPoly(1, {(l,): field.one}, field))

    def __add__(self, other):
        return ShuffleElem._of(self._dominant() + other._dominant())

    def __sub__(self, other):
        return ShuffleElem._of(self._dominant() - other._dominant())

    def scale(self, c):
        return ShuffleElem._of(self._dominant() * c)

    @staticmethod
    def coordinates(elems):
        """Coefficient vectors of the elements over the sorted union of
        their dominant exponent vectors, cleared to one common denominator
        (Realization.coordinates); the vectors over every monomial repeat
        each coordinate across its orbit and have the same rank."""
        basis = sorted(set().union(*(e.terms for e in elems)))
        field = elems[0].field
        _, nums = cleared(
            [e.terms.get(m, field.zero) for e in elems for m in basis], field
        )
        n = len(basis)
        return [nums[i * n : (i + 1) * n] for i in range(len(elems))]

    def __eq__(self, other):
        same = isinstance(other, ShuffleElem) and self.nvars == other.nvars
        return same and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "ShuffleElem(%s)" % self._dominant().to_str()


def _difference(i, j, nvars, field):
    return MultiPoly.variable(i, nvars, field) - MultiPoly.variable(j, nvars, field)


def star_product(P: ShuffleElem, Q: ShuffleElem, kernel: Kernel) -> ShuffleElem:
    """Shuffle product with the g = h/z twist, ∂_{w_{r,s}}(P·Q·H_{r,s})
    (module docstring).  The dominant coefficients of P and Q and the
    terms of H_{r,s} are cleared and packed once, the coefficients at a
    slot width w and each exponent vector into one int at 2^ew; a
    dominant term of P (of Q) stands for its S_r (S_s) orbit, whose
    packed exponent vectors share its packed numerator.  (P·H)·Q (half
    the term pairs of (P·Q)·H) goes through the r·s steps of the reduced
    word, and only its dominant terms are unpacked and reduced
    (``_dominant_part``).  The width holds the product bound of G times
    prod_{t<rs}(D+1-t), D its total degree."""
    r, s = P.nvars, Q.nvars
    field = P.field
    if r == 0:
        return Q.scale(P.terms.get((), field.zero))
    if s == 0:
        return P.scale(Q.terms.get((), field.zero))
    factors = (P._dominant(), kernel.cross_factor(r, s), Q._dominant())
    images = [cleared(f.terms.values(), field) for f in factors]
    degree = sum(f.total_degree() for f in factors)
    ew = _slot_width(degree)
    orbits = (  # Q in slots r..n-1
        [[_pack(x, ew) for x in set(permutations(e))] for e in P.terms],
        [[_pack(e, ew)] for e in factors[1].terms],
        [[_pack(x, ew) << r * ew for x in set(permutations(e))] for e in Q.terms],
    )
    w = None
    if field.mode == "exact":
        # B = Σ‖p‖₁·Σ‖q‖₁·max‖h‖∞ bounds the kappa-coefficients of G: a
        # coefficient of G has one product p·q·h per (P-term, Q-term) pair;
        # the sums run over the full P and Q, each dominant numerator once
        # per member of its orbit.  Step t < r·s maps a polynomial of
        # total degree at most D - t, and its output at z_i^u z_{i+1}^v is
        # a signed sum of the inputs at z_i^a z_{i+1}^b, a + b = u + v + 1,
        # the other exponents fixed: at most D + 1 - t of them.  The steps
        # are Z-linear, so they commute with packing and only the result
        # needs B·prod_{t<rs}(D+1-t).
        (_, pn), (_, hn), (_, qn) = images
        p = sum(len(o) * sum(map(abs, c)) for o, c in zip(orbits[0], pn))
        q = sum(len(o) * sum(map(abs, c)) for o, c in zip(orbits[2], qn))
        bound = p * q * max(abs(x) for c in hn for x in c)
        w = _slot_width(bound * prod(degree + 1 - t for t in range(r * s)))
    pk, hk, qk = (_packed_terms(o, nums, w) for o, (_, nums) in zip(orbits, images))
    G = _packed_product(_packed_product(pk, hk), qk)
    for b in range(r - 1, -1, -1):
        for i in range(b, b + s):
            G = _divided_difference(G, i, ew)
    return _dominant_part(G, r + s, [d for d, _ in images], w, ew, field)


def _packed_terms(orbits, nums, w):
    """{packed exponent vector: packed numerator}: each cleared numerator
    of nums (``linalg.cleared``) under every packed exponent vector of
    its entry of orbits; numerators packed at 2^w, left as ints when w is
    None (kappa specialized).  Packing is a ring map, so sums and
    products of packed terms are packed sums and products; a numerator
    unpacks correctly when every kappa-coefficient of it lies strictly
    inside ±2^(w-1)."""
    if w is not None:
        nums = [_pack(c, w) for c in nums]
    return {k: c for keys, c in zip(orbits, nums) for k in keys}


def _packed_product(a, b):
    """The product of two {packed exponent vector: int} term dicts; a
    monomial product is one int addition."""
    bterms = list(b.items())
    acc = {}
    get = acc.get
    for ka, x in a.items():
        for kb, y in bterms:
            k = ka + kb
            acc[k] = get(k, 0) + x * y
    return acc


def _dominant_part(terms, nvars, dens, w, ew, field):
    """The ShuffleElem over field of the packed terms (``_packed_terms``),
    a symmetric polynomial, divided by the product of dens: only the
    nonzero terms with weakly decreasing exponent vectors are unpacked and
    reduced.  Every exponent is below 2^(ew-1) (``_slot_width``), so with
    the top bit of slots 0..n-2 set in guard, slot i of (k | guard) -
    (k >> ew) is 2^(ew-1) + e_i - e_(i+1) and borrows nothing: its top bit
    is set exactly when e_i >= e_(i+1)."""
    guard = sum(1 << (i * ew + ew - 1) for i in range(nvars - 1))
    terms = [
        (k, v)
        for k, v in terms.items()
        if v and ((k | guard) - (k >> ew)) & guard == guard
    ]
    if w is None:
        den = prod(dens)
        coeffs = [Fraction(v, den) for _, v in terms]
    else:
        den = reduce(pmul, dens)
        coeffs = [FieldElem(_unpack(v, w), den) for _, v in terms]
    mask, shifts = (1 << ew) - 1, range(0, nvars * ew, ew)
    exps = [tuple([k >> t & mask for t in shifts]) for k, _ in terms]
    terms = dict(zip(exps, coeffs))
    return ShuffleElem._of(MultiPoly(nvars, terms, field, _clean=True))


def _divided_difference(terms, i, ew):
    """∂_i (0-based) on packed terms with exponent slots of ew bits:
    c·z_i^a z_{i+1}^b goes to c·Σ_{k<a-b} z_i^(b+k) z_{i+1}^(a-1-k) when
    a > b, to minus that sum with a and b exchanged when a < b, else to 0;
    a term and its mirror z_i^b z_{i+1}^a share the sum and go together."""
    lo, hi = i * ew, (i + 1) * ew
    mask = (1 << ew) - 1
    step = (1 << lo) - (1 << hi)  # z_i^(u+1) z_{i+1}^(v-1) from z_i^u z_{i+1}^v
    out = {}
    get = out.get
    for key, c in terms.items():
        a = key >> lo & mask
        b = key >> hi & mask
        if a > b:
            m = a - b
            c -= terms.get(key - m * step, 0)
            key += ((m - 1) << hi) - (m << lo)  # z_i^b z_{i+1}^(a-1)
        elif a < b and key + (b - a) * step not in terms:
            m = b - a
            key -= 1 << hi  # z_i^a z_{i+1}^(b-1)
            c = -c
        else:
            continue
        if c:
            for _ in range(m):
                out[key] = get(key, 0) + c
                key += step
    return out


class ShuffleContext:
    """The realization of the free algebra (products cached per word) and
    the verification checks."""

    def __init__(self, field):
        self.field = field
        self.kernel = Kernel(field)
        self.free = FreeAlgebra(field, L=None, K=None)
        self.realize = Realization(
            {T1: lambda k: ShuffleElem.generator(k, field)},
            lambda a, b: star_product(a, b, self.kernel),
            lambda: ShuffleElem.unit(field),
            coordinates=ShuffleElem.coordinates,
        )

    # -- checks ------------------------------------------------------------

    def kernel_expansion_check(self) -> CheckOutcome:
        """The factored kernel equals its expanded cubic form, and
        k(u) = -h(-u)."""
        f = self.field
        ok = self.kernel.h_coeffs() == self.kernel.h_factored_coeffs()
        hk = [
            (-f.one) ** (e + 1) * c for e, c in enumerate(self.kernel.h_coeffs())
        ]  # coefficients of -h(-u)
        ok = ok and hk == self.kernel.k_coeffs()
        return CheckOutcome(
            "shuffle_kernel_forms", (0, 0), "pass" if ok else "fail"
        )

    def square_of_unit_degree_check(self) -> CheckOutcome:
        """z^0 * z^0 = 2(z1 - z2)^2 - 2(kappa^2 - kappa + 1)."""
        f = self.field
        got = self.realize.word(t1_word(0, 0))
        u = _difference(0, 1, 2, f)
        want = u * u * f.from_int(2) - MultiPoly.constant(
            (f.kappa * f.kappa - f.kappa + f.one) * f.from_int(2), 2, f
        )
        ok = got == ShuffleElem(want)
        return CheckOutcome("shuffle_z0_square", (0, 0), "pass" if ok else "fail")

    def quadratic_relation_check(self) -> CheckOutcome:
        """The defining quadratic relation holds inside the shuffle algebra."""
        expr = self.realize(self.free.quadratic_relation())
        return CheckOutcome(
            "shuffle_quadratic_relation", (0, 0), "pass" if expr.is_zero() else "fail"
        )

    def associativity_check(self, trials=20, seed=20240501) -> CheckOutcome:
        """(P*Q)*R = P*(Q*R) on deterministic pseudo-random triples with at
        most four total variables."""
        f = self.field
        rng = random.Random(seed)
        # four-variable trials dominate the cost; keep them in the rotation
        # but lean on the three-variable shape
        shapes = [(1, 1, 1), (1, 1, 2), (1, 1, 1), (1, 2, 1), (1, 1, 1), (2, 1, 1)]
        for t in range(trials):
            shape = shapes[t % len(shapes)]
            elems = []
            for nv in shape:
                if nv == 1:
                    terms = {(e,): rng.randint(-3, 3) for e in range(3)}
                else:
                    terms = {
                        (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)
                        for _ in range(3)
                    }
                poly = MultiPoly(nv, {e: f.from_int(c) for e, c in terms.items()}, f)
                elems.append(ShuffleElem(poly if nv == 1 else poly.symmetrize()))
            P, Q, R = elems
            left = star_product(star_product(P, Q, self.kernel), R, self.kernel)
            right = star_product(P, star_product(Q, R, self.kernel), self.kernel)
            if left != right:
                return CheckOutcome(
                    "shuffle_associativity",
                    (0, trials - 1),
                    "fail",
                    detail="trial %d shape %r" % (t, shape),
                )
        return CheckOutcome("shuffle_associativity", (0, trials - 1), "pass")

    # -- kernel comparisons with the operator realization -------------------

    def rank2_kernel_compare(self, K, opctx) -> list:
        """Kernel of the rank-2 shuffle multiplication map versus the kernel
        of the corresponding operator map, plus the divisibility witness.

        Both kernels are certified against the rank-2 relations
        rank2_relation(k, l), k, l <= K - 3 (kernel_certificate): the
        relations vanish exactly in both realizations, and a certified
        relation span equal to both kernel bounds makes them the kernel
        of both.
        """
        f = self.field
        words, rels = self.free.rank2_relations(K)
        included, span, skernel, okernel = kernel_certificate(
            rels, words, self.realize, opctx.realize
        )
        out = [
            CheckOutcome(
                "shuffle_rank2_kernel_inclusion(K=%d)" % K,
                (0, K),
                "pass" if included else "fail",
            ),
            CheckOutcome(
                "shuffle_rank2_kernel_dims(K=%d)" % K,
                (0, K),
                "pass" if included and span == skernel == okernel else "fail",
                detail="shuffle kernel %d, certified operator kernel %d"
                % (skernel, okernel),
            ),
        ]
        # divisibility witness: each relation, read as sum a_kl z1^k z2^l,
        # is divisible by h(z2 - z1) with symmetric quotient
        hrev = self.kernel.h_of(_difference(1, 0, 2, f))
        div_ok = True
        for el in rels:
            poly = MultiPoly(
                2, {(w[0][1], w[1][1]): c for w, c in el.terms.items()}, f
            )
            try:
                ShuffleElem(poly.divexact(hrev))
            except ValueError:
                div_ok = False
                break
        out.append(
            CheckOutcome(
                "shuffle_rank2_kernel_divisibility(K=%d)" % K,
                (0, K),
                "pass" if div_ok else "fail",
            )
        )
        return out

    def rank3_kernel_compare(self, d, opctx) -> list:
        """Completeness of the presentation at rank 3: on the words
        t1[a]t1[b]t1[c] with a+b+c <= d, the relations S_d
        (FreeAlgebra.rank3_relations) vanish in the shuffle algebra and on
        the operators, and their certified span meets both kernel bounds.
        Operator words with an empty window give skipped records."""
        ids = [
            "shuffle_rank3_kernel_%s(d=%d)" % (what, d)
            for what in ("inclusion", "dims")
        ]
        words, rels = self.free.rank3_relations(d)
        try:
            included, span, skernel, okernel = kernel_certificate(
                rels, words, self.realize, opctx.realize
            )
        except WindowError as e:
            return [skipped(cid, e) for cid in ids]
        return [
            CheckOutcome(ids[0], (0, d), "pass" if included else "fail"),
            CheckOutcome(
                ids[1],
                (0, d),
                "pass" if included and span == skernel == okernel else "fail",
                detail="relation span %d, shuffle kernel %d, certified "
                "operator kernel %d" % (span, skernel, okernel),
            ),
        ]

    def exchange_samples_check(self, opctx) -> CheckOutcome:
        """Coefficient instances (l, k), for every (l, k) in {3,4}^2, of the
        generating-function exchange identity, evaluated on operators."""
        grid = [(l, k) for l in (3, 4) for k in (3, 4)]
        window = (0, len(grid) - 1)
        for l, k in grid:
            res = opctx.check_relation("exchange", l, k)
            if res.status == "fail":
                return CheckOutcome(
                    "shuffle_exchange_samples",
                    window,
                    "fail",
                    detail="instance %r" % ((l, k),),
                )
        return CheckOutcome(
            "shuffle_exchange_samples",
            window,
            "pass",
            detail="instances %s" % (grid,),
        )
