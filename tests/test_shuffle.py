"""Shuffle algebra with the cubic-twisted product."""

import random
from fractions import Fraction

import pytest
from conftest import (
    FieldSpan,
    kernel_of_vectors,
    multipoly_mul_oracle,
    star_product_oracle,
)
from test_multipoly import random_poly

from wsh.field import RationalFunctionField, SpecializedField
from wsh.multipoly import MultiPoly
from wsh.operators import OpContext
from wsh.presentation import FreeAlgebra, kernel_certificate, t1_word
from wsh.shuffle import Kernel, ShuffleContext, ShuffleElem, star_product

F = RationalFunctionField()
S = SpecializedField(Fraction(7, 3))


@pytest.fixture(scope="module")
def sc():
    return ShuffleContext(F)


def z(e, n=2):
    return MultiPoly.variable(e, n, F)


def product(sc, a, b):
    """z^a * z^b, through the realization's word cache."""
    return sc.realize.word(t1_word(a, b))


def test_kernel_expansions_agree():
    ker = Kernel(F)
    assert ker.h_coeffs() == ker.h_factored_coeffs()
    # k(u) = -h(-u): coefficients flip sign in even degrees
    assert ker.k_coeffs() == [
        c if i % 2 else -c for i, c in enumerate(ker.h_coeffs())
    ]


def test_unit_is_neutral(sc):
    e = ShuffleElem.unit(F)
    g = ShuffleElem.generator(3, F)
    assert star_product(e, g, sc.kernel) == g
    assert star_product(g, e, sc.kernel) == g


def test_square_of_degree_zero_generator(sc):
    # z^0 * z^0 = 2 (z1 - z2)^2 - 2 (kappa^2 - kappa + 1)
    k = F.kappa
    got = product(sc, 0, 0)
    d = z(0) - z(1)
    want = d * d * 2 - MultiPoly.constant((k * k - k + 1) * 2, 2, F)
    assert got.poly == want


def test_commutator_closed_form(sc):
    # [z^a, z^b] = 2 kappa (kappa-1) (z1^a z2^b - z1^b z2^a)/(z1 - z2)
    k = F.kappa
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        comm = product(sc, a, b) - product(sc, b, a)
        anti = z(0) ** a * z(1) ** b - z(0) ** b * z(1) ** a
        want = anti.divexact(z(0) - z(1)) * (k * (k - 1) * 2)
        assert comm.poly == want


def test_products_are_symmetric_polynomials(sc):
    for a, b in [(0, 0), (1, 2), (3, 3)]:
        assert product(sc, a, b).poly.is_symmetric()


def test_small_associativity():
    ker = Kernel(F)
    g = lambda l: ShuffleElem.generator(l, F)
    for a, b, c in [(0, 0, 1), (1, 2, 0), (2, 1, 1)]:
        left = star_product(star_product(g(a), g(b), ker), g(c), ker)
        right = star_product(g(a), star_product(g(b), g(c), ker), ker)
        assert left == right


def test_builtin_checks_pass(sc):
    assert sc.kernel_expansion_check().status == "pass"
    assert sc.square_of_unit_degree_check().status == "pass"
    assert sc.quadratic_relation_check().status == "pass"
    assert sc.associativity_check(trials=4).status == "pass"


def test_rank2_kernel_certificates(sc, ctx6):
    outcomes = sc.rank2_kernel_compare(4, ctx6)
    assert outcomes and all(o.status == "pass" for o in outcomes)
    # the kernel of the rank-2 comparison map has dimension 3 at window 4
    dims = [o for o in outcomes if "kernel_dims" in o.id]
    assert dims and "3" in dims[0].detail


# at rank 3 the exact echelon over Z[kappa] runs over a minute (SpanBasis strips
# integer content only, so kappa-degrees double with each pivot); the
# oracle runs at kappa = 7/3 there
@pytest.mark.parametrize("rank, field, dim", [(2, F, 3), (3, S, 5)])
def test_certified_relation_span_is_the_oracle_kernel(rank, field, dim):
    """The rank-2 box at K=4 and W_3 at rank 3: the kernel of the shuffle
    words from the oracle has the certified dimension, and each of its
    vectors lies in the span of the relations."""
    sc = ShuffleContext(field)
    if rank == 2:
        words, rels = sc.free.rank2_relations(4)
    else:
        words, rels = sc.free.rank3_relations(3)
    assert kernel_certificate(rels, words, sc.realize) == (True, dim, dim)
    images = [sc.realize.word(w).poly.terms for w in words]
    basis = sorted(set().union(*images))
    vecs = [[t.get(m, field.zero) for m in basis] for t in images]
    rank_, kernel = kernel_of_vectors(vecs, field)
    assert rank_ + dim == len(words) and len(kernel) == dim
    span = FieldSpan(field)
    for el in rels:
        span.add([el.terms.get(w, field.zero) for w in words])
    assert span.dim == dim
    assert all(span.contains(a) for a in kernel)


def test_rank3_kernel_certificate_at_the_reference_window(sc, ctx8):
    inclusion, dims = sc.rank3_kernel_compare(6, ctx8)
    assert inclusion.id == "shuffle_rank3_kernel_inclusion(d=6)"
    assert inclusion.status == "pass" and inclusion.window == (0, 6)
    assert dims.id == "shuffle_rank3_kernel_dims(d=6)" and dims.status == "pass"
    assert dims.detail == (
        "relation span 35, shuffle kernel 35, certified operator kernel 35"
    )


def test_rank3_kernel_dims_fail_without_the_cubic_family(monkeypatch):
    # the R2 products alone span 6 of the 11 kernel dimensions on W_4, so
    # the check cannot pass by construction
    monkeypatch.setattr(FreeAlgebra, "cubic_family", lambda self, *ks: self.zero())
    inclusion, dims = ShuffleContext(S).rank3_kernel_compare(4, OpContext(S, 6))
    assert inclusion.status == "pass"
    assert dims.status == "fail"
    assert dims.detail == (
        "relation span 6, shuffle kernel 11, certified operator kernel 11"
    )


def test_exchange_samples(sc, ctx6):
    res = sc.exchange_samples_check(ctx6)
    assert res.status == "pass"
    assert res.window == (0, 3)
    assert res.detail == "instances [(3, 3), (3, 4), (4, 3), (4, 4)]"


def _random_elem(rng, nvars, field):
    if nvars == 0:
        return ShuffleElem.unit(field).scale(field.from_int(rng.choice((-2, 3))))
    return ShuffleElem(random_poly(rng, nvars, field, terms=2).symmetrize())


@pytest.mark.parametrize("field", [F, S])
def test_star_product_matches_oracle(field):
    """Shapes 1+1 .. 3+1 and the unit on either side, with negative, large
    and kappa-rational coefficients, against the Vandermonde-clearing
    product."""
    rng = random.Random(2024)
    ker = Kernel(field)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (0, 2), (2, 0)]
    for r, s in shapes:
        P, Q = _random_elem(rng, r, field), _random_elem(rng, s, field)
        assert star_product(P, Q, ker) == star_product_oracle(P, Q, ker)
    for r, s in ((1, 2), (2, 1)):
        P, Q = _random_elem(rng, r, field), _random_elem(rng, s, field)
        zero_p = ShuffleElem(MultiPoly.zero(r, field))
        zero_q = ShuffleElem(MultiPoly.zero(s, field))
        assert star_product(zero_p, Q, ker).is_zero()
        assert star_product(P, zero_q, ker).is_zero()


def test_cross_factor_is_the_cached_termwise_product():
    """K_{r,s} against the product of h(z_i - z_j) = (u+1-k)(u-1)(u+k) and
    z_i - z_j, one linear factor at a time, with the termwise product."""
    ker = Kernel(F)
    k = F.kappa
    for r, s in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        n = r + s
        one = MultiPoly.constant(F.one, n, F)
        want = one
        for i in range(n):
            for j in range(i + 1, n):
                d = z(i, n) - z(j, n)
                roots = (k - 1, F.one, -k) if i < r <= j else (F.zero,)
                for root in roots:
                    want = multipoly_mul_oracle(want, d - one * root)
        got = ker.cross_factor(r, s)
        assert got == want
        assert ker.cross_factor(r, s) is got
