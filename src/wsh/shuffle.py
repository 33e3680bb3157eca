"""Symmetric shuffle algebra with the cubic-kernel twist.

Degree-n elements are symmetric polynomials in z_1..z_n; the product of a
degree-r and a degree-s element is a sum over (r,s)-shuffles weighted by
g(z_i - z_j) = h(z_i - z_j)/(z_i - z_j) across the two blocks, with

    h(u) = (u + 1 - kappa)(u - 1)(u + kappa).

No rational function is formed.  The Vandermonde Δ_n = prod_{a<b} (z_a -
z_b) is the product W of the cross differences times the within-block
Vandermondes V, so Δ_n/σ(W) = sgn(σ)·σ(V) for every shuffle σ.  The
product times Δ_n is therefore one signed symmetrization of P·Q·K_{r,s},
where K_{r,s} = (h-cross factor)·V is cached per shape, and it is divided
by Δ_n one linear factor z_a - z_b at a time.  The relations checked here
are the free-algebra relation elements of ``presentation``, realized with
t1[k] going to z^k (ShuffleContext.realize).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, prod

from .checks import CheckOutcome
from .linalg import _norm1, _norm_inf, _slot_width, cleared, ring_row
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
        """K_{r,s} = prod_{i<r<=j} h(z_i - z_j) · Δ(z_1..z_r) · Δ(z_{r+1}..z_n),
        with Δ the Vandermonde product prod_{a<b} (z_a - z_b); cached per
        shape (r, s)."""
        K = self._cross.get((r, s))
        if K is None:
            n = r + s
            K = MultiPoly.constant(self.field.one, n, self.field)
            for i in range(n):
                for j in range(i + 1, n):
                    d = _difference(i, j, n, self.field)
                    K = K * (self.h_of(d) if i < r <= j else d)
            self._cross[r, s] = K
        return K


class ShuffleElem:
    """Symmetric polynomial in n variables; degree-n piece of the algebra."""

    __slots__ = ("nvars", "poly", "field")

    def __init__(self, poly: MultiPoly):
        if not poly.is_symmetric():
            raise ValueError("shuffle element must be a symmetric polynomial")
        self.nvars = poly.nvars
        self.poly = poly
        self.field = poly.field

    @staticmethod
    def unit(field):
        return ShuffleElem(MultiPoly.constant(field.one, 0, field))

    @staticmethod
    def generator(l, field):
        """z^l in the one-variable piece."""
        return ShuffleElem(MultiPoly(1, {(l,): field.one}, field))

    def __add__(self, other):
        return ShuffleElem(self.poly + other.poly)

    def __sub__(self, other):
        return ShuffleElem(self.poly - other.poly)

    def scale(self, c):
        return ShuffleElem(self.poly * c)

    @staticmethod
    def coordinates(elems):
        """Coefficient vectors of the elements over the sorted union of
        their monomials, as ring rows (Realization.coordinates)."""
        basis = sorted(set().union(*(e.poly.terms for e in elems)))
        field = elems[0].field
        return [
            ring_row([e.poly.terms.get(m, field.zero) for m in basis], field)
            for e in elems
        ]

    def __eq__(self, other):
        return isinstance(other, ShuffleElem) and self.poly == other.poly

    def is_zero(self):
        return not self.poly

    def __repr__(self):
        return "ShuffleElem(%s)" % self.poly.to_str()


def _difference(i, j, nvars, field):
    e1 = [0] * nvars
    e1[i] = 1
    e2 = [0] * nvars
    e2[j] = 1
    return MultiPoly(
        nvars, {tuple(e1): field.one, tuple(e2): -field.one}, field
    )


def star_product(P: ShuffleElem, Q: ShuffleElem, kernel: Kernel) -> ShuffleElem:
    """Shuffle product with the g = h/z twist: the sum over (r,s)-shuffles
    σ of σ(P·Q·prod_{i<r<=j} h(z_i - z_j)/(z_i - z_j)).

    Since Δ_n/σ(W) = sgn(σ)·σ(V) (module docstring), the sum is
    (sum of sgn(σ)·σ(F)) / Δ_n with F = P·Q·K_{r,s}; the division runs
    over the linear factors z_a - z_b and is checked exact.
    """
    r, s = P.nvars, Q.nvars
    n = r + s
    if r == 0:
        return Q.scale(P.poly.coefficient(()))
    if s == 0:
        return P.scale(Q.poly.coefficient(()))
    factors = (
        P.poly.extend(n),
        Q.poly.extend(n, offset=r),
        kernel.cross_factor(r, s),
    )
    images = [cleared(f.terms.values(), f.field) for f in factors]
    w = None
    if P.field.mode == "exact":
        # every value below is bounded by the product bound of F, times the
        # number of shuffles, times the length of a diagonal (at most the
        # total degree + 1) at each division
        (_, p), (_, q), (_, k) = images
        degree = sum(f.total_degree() for f in factors)
        growth = comb(n, r) * prod(degree + 1 - i for i in range(n * (n - 1) // 2))
        bound = sum(map(_norm1, p)) * sum(map(_norm1, q)) * max(map(_norm_inf, k))
        w = _slot_width(bound * growth)
    pi, qi, ki = (f.integer_image(c, w) for f, (_, c) in zip(factors, images))
    acc = _signed_shuffle_sum(pi * qi * ki, r)
    for a in range(n):
        for b in range(a + 1, n):
            acc = acc.div_linear(a, b)
    return ShuffleElem(acc.over([den for den, _ in images], w, P.field))


def _signed_shuffle_sum(F: MultiPoly, r) -> MultiPoly:
    """sum over (r, n-r)-shuffles σ of sgn(σ)·σ(F)."""
    n = F.nvars
    acc = MultiPoly.zero(n, F.field)
    for subset in combinations(range(n), r):
        perm = list(subset) + [x for x in range(n) if x not in subset]
        term = F.permute_vars(perm)  # original position i goes to perm[i]
        # sgn(σ) counts the pairs (subset element, smaller complement element)
        if (sum(subset) - r * (r - 1) // 2) % 2:
            acc = acc - term
        else:
            acc = acc + term
    return acc


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
        ok = got.poly == want
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
        shapes = [
            (1, 1, 1),
            (1, 1, 2),
            (1, 1, 1),
            (1, 2, 1),
            (1, 1, 1),
            (2, 1, 1),
        ]
        for t in range(trials):
            shape = shapes[t % len(shapes)]
            elems = []
            for nv in shape:
                if nv == 1:
                    poly = MultiPoly(
                        1,
                        {(e,): f.from_int(rng.randint(-3, 3)) for e in range(3)},
                        f,
                    )
                else:
                    raw = MultiPoly(
                        nv,
                        {
                            (rng.randint(0, 2), rng.randint(0, 2)): f.from_int(
                                rng.randint(-2, 2)
                            )
                            for _ in range(3)
                        },
                        f,
                    )
                    poly = raw.symmetrize()
                elems.append(ShuffleElem(poly))
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

    def _certificates(self, words, relations, opctx):
        """kernel_certificate of the relations on the words in the shuffle
        algebra and on the operators of opctx: (included in both, relation
        span, shuffle kernel bound, operator kernel bound)."""
        s_in, span, skernel = kernel_certificate(relations, words, self.realize)
        o_in, _, okernel = kernel_certificate(relations, words, opctx.realize)
        return s_in and o_in, span, skernel, okernel

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
        included, span, skernel, okernel = self._certificates(words, rels, opctx)
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
                q = poly.divexact(hrev)
            except ValueError:
                div_ok = False
                break
            if not q.is_symmetric():
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
            included, span, skernel, okernel = self._certificates(words, rels, opctx)
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
