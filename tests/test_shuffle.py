"""Shuffle algebra with the cubic-twisted product."""

import itertools
import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from conftest import (
    FieldSpan,
    expanded,
    kernel_of_vectors,
    packed_terms_of,
    star_product_full_terms,
    star_product_oracle,
    unpacked_poly,
)
from test_multipoly import random_poly

from wsh import linalg
from wsh.field import RationalFunctionField, SpecializedField
from wsh.linalg import _slot_width
from wsh.multipoly import MultiPoly
from wsh.operators import OpContext
from wsh.presentation import FreeAlgebra, kernel_certificate, t1_word
from wsh.shuffle import (
    Kernel,
    ShuffleContext,
    ShuffleElem,
    _divided_difference,
    _dominant_part,
    _packed_product,
    star_product,
)

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
    assert expanded(got) == want


def test_commutator_closed_form(sc):
    # [z^a, z^b] = 2 kappa (kappa-1) (z1^a z2^b - z1^b z2^a)/(z1 - z2)
    k = F.kappa
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        comm = product(sc, a, b) - product(sc, b, a)
        anti = z(0) ** a * z(1) ** b - z(0) ** b * z(1) ** a
        want = anti.divexact(z(0) - z(1)) * (k * (k - 1) * 2)
        assert expanded(comm) == want


def test_products_are_symmetric_polynomials(sc):
    # the full-term product is a symmetric polynomial, and its dominant
    # terms are the product
    g = lambda l: ShuffleElem.generator(l, F)
    for a, b in [(0, 0), (1, 2), (3, 3)]:
        full = star_product_full_terms(g(a), g(b), sc.kernel)
        assert full.is_symmetric()
        assert ShuffleElem(full) == product(sc, a, b)


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


@pytest.mark.parametrize("rank, field, dim", [(2, F, 3), (3, S, 5), (3, F, 5)])
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
    images = [expanded(sc.realize.word(w)).terms for w in words]
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
    """H_{r,s} against the product of h(z_i - z_j) = (u+1-k)(u-1)(u+k) over
    the cross pairs i < r <= j only, one linear factor at a time."""
    ker = Kernel(F)
    k = F.kappa
    for r, s in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        n = r + s
        one = MultiPoly.constant(F.one, n, F)
        want = one
        for i in range(r):
            for j in range(r, n):
                d = z(i, n) - z(j, n)
                for root in (k - 1, F.one, -k):
                    want = want * (d - one * root)
        got = ker.cross_factor(r, s)
        assert got == want
        assert got.total_degree() == 3 * r * s
        assert ker.cross_factor(r, s) is got


def divided_difference_oracle(f, i):
    """(f - f∘s_i).divexact(z_i - z_{i+1}), 0-based i."""
    n = f.nvars
    perm = list(range(n))
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    d = MultiPoly.variable(i, n, f.field) - MultiPoly.variable(i + 1, n, f.field)
    return (f - f.permute_vars(perm)).divexact(d)


def norm1(nums):
    """The sum of the absolute kappa-coefficients of cleared numerators."""
    return sum(abs(x) for num in nums for x in num)


def norm_inf(nums):
    """The largest absolute kappa-coefficient of cleared numerators."""
    return max(abs(x) for num in nums for x in num)


def packed_divided_difference(f, i):
    """∂_i f along star_product's path: the cleared numerators packed at a
    width that holds any signed sum of them, exponent vectors packed, one
    step, then unpacked and reduced."""
    field = f.field
    den, nums = linalg.cleared(f.terms.values(), field)
    w = None if field.mode == "specialized" else _slot_width(norm1(nums))
    ew = _slot_width(max(f.total_degree(), 1))
    out = _divided_difference(packed_terms_of(f, nums, w, ew), i, ew)
    return unpacked_poly(out, f.nvars, [den], w, ew, field)


@pytest.mark.parametrize("field", [F, S])
def test_packed_terms_round_trip(field):
    """Terms packed at the width of their largest numerator coefficient
    (kappa specialized: left as ints) unpack to the polynomial."""
    rng = random.Random(7)
    p = random_poly(rng, 3, field, terms=6)
    den, nums = linalg.cleared(p.terms.values(), field)
    w = None if field is S else _slot_width(norm_inf(nums))
    ew = _slot_width(p.total_degree())
    packed = packed_terms_of(p, nums, w, ew)
    assert len(packed) == len(p.terms)
    assert all(type(c) is int for c in packed.values())
    assert unpacked_poly(packed, 3, [den], w, ew, field) == p
    # a symmetric polynomial comes back as its dominant terms only
    sym = p.symmetrize()
    den, nums = linalg.cleared(sym.terms.values(), field)
    w = None if field is S else _slot_width(norm_inf(nums))
    ew = _slot_width(sym.total_degree())
    got = _dominant_part(packed_terms_of(sym, nums, w, ew), 3, [den], w, ew, field)
    assert got == ShuffleElem(sym) and len(got.terms) < len(sym.terms)


@pytest.mark.parametrize("field", [F, S])
def test_packed_product_is_the_termwise_product(field):
    """Seeded polynomials in 1-3 variables with ±2^70 and kappa-rational
    coefficients, packed at the width (Σ‖a‖₁)·max‖b‖∞ of a sum of
    products and multiplied as packed terms, unpack to their product."""
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(3):
            a, b = (random_poly(rng, n, field, terms=5, degree=3) for _ in range(2))
            (da, na), (db, nb) = (linalg.cleared(f.terms.values(), field) for f in (a, b))
            w = None if field is S else _slot_width(norm1(na) * norm_inf(nb))
            ew = _slot_width(a.total_degree() + b.total_degree())
            pa, pb = packed_terms_of(a, na, w, ew), packed_terms_of(b, nb, w, ew)
            got = _packed_product(pa, pb)
            assert unpacked_poly(got, n, [da, db], w, ew, field) == a * b


@pytest.mark.parametrize("field", [F, S])
def test_divided_difference_matches_exact_division(field):
    """Seeded polynomials in 2-4 variables with ±2^70 and kappa-rational
    coefficients, plus terms with equal exponents at every adjacent pair
    (they vanish), the zero polynomial and symmetric polynomials (∂_i of
    them is 0)."""
    rng = random.Random(1729)
    big = field.from_int(2**70)
    for n in (2, 3, 4):
        zero = MultiPoly.zero(n, field)
        sym = random_poly(rng, n, field, terms=3).symmetrize()
        for i in range(n - 1):
            assert packed_divided_difference(zero, i) == zero
            assert packed_divided_difference(sym, i) == zero
        for _ in range(4):
            f = random_poly(rng, n, field, terms=6, degree=4)
            f = f + MultiPoly(n, {(3,) * n: big, (1,) * n: -big}, field)
            for i in range(n - 1):
                got = packed_divided_difference(f, i)
                assert got == divided_difference_oracle(f, i)
    # a > b, a < b and a = b on single terms
    c = field.from_int(-(2**70) + 1)
    mono = lambda e: MultiPoly(2, {e: c}, field)
    for e in ((4, 1), (1, 4), (2, 2), (1, 0), (0, 1), (0, 0)):
        assert packed_divided_difference(mono(e), 0) == divided_difference_oracle(mono(e), 0)


def _kernel_value(u, kappa):
    """g(u) = h(u)/u at kappa, h(u) = (u + 1 - kappa)(u - 1)(u + kappa)."""
    return (u + 1 - kappa) * (u - 1) * (u + kappa) / u


def _value(poly, point, kappa):
    """A polynomial over the field at z = point and kappa."""
    if poly.field.mode == "exact":
        return _value(_at_kappa(poly, kappa), point, kappa)
    return sum(c * prod(x**k for x, k in zip(point, e)) for e, c in poly.terms.items())


def _at_kappa(poly, kappa):
    """A polynomial over Q(kappa) with kappa set to a rational."""
    terms = {e: c.evaluate(kappa) for e, c in poly.terms.items()}
    return MultiPoly(poly.nvars, terms, SpecializedField(kappa))


def shuffle_sum_at(P, Q, point, kappa):
    """The defining sum over (r,s)-shuffles at a point: over r-subsets S,
    P(z_S)·Q(z_rest)·prod_{i in S, j not in S} g(z_i - z_j)."""
    n = P.nvars + Q.nvars
    total = Fraction(0)
    for sub in combinations(range(n), P.nvars):
        rest = [j for j in range(n) if j not in sub]
        term = _value(expanded(P), [point[i] for i in sub], kappa)
        term *= _value(expanded(Q), [point[j] for j in rest], kappa)
        for i in sub:
            for j in rest:
                term *= _kernel_value(point[i] - point[j], kappa)
        total += term
    return total


@pytest.mark.parametrize("field", [F, S])
@pytest.mark.parametrize("r, s", [(2, 2), (1, 3), (3, 1), (2, 3)])
def test_star_product_matches_the_shuffle_sum_at_points(field, r, s):
    """With coefficients ±(2^64 - 1), ±2^70 times (2^64 - 1) and
    kappa-rational ones, the product agrees with the defining sum at four
    seeded points with distinct integer coordinates (and, in exact mode, a
    seeded rational kappa)."""
    rng = random.Random(10 * r + s)
    ker = Kernel(field)
    m = field.from_int(2**64 - 1)
    P = ShuffleElem((random_poly(rng, r, field, terms=2) * m).symmetrize())
    Q = ShuffleElem(random_poly(rng, s, field, terms=2).symmetrize() * -m)
    got = expanded(star_product(P, Q, ker))
    kappa = S.kappa if field is S else Fraction(rng.randint(-999, 999), rng.randint(1, 99))
    if field is F:
        got = _at_kappa(got, kappa)  # once, not at every point
    for _ in range(4):
        point = [rng.randint(-(10**6), 10**6) for _ in range(r + s)]
        assert len(set(point)) == r + s
        assert _value(got, point, kappa) == shuffle_sum_at(P, Q, point, kappa)


def test_star_product_of_shape_2_3_matches_oracle():
    """Shape (2,3) against the oracle at kappa = 7/3, on constant factors:
    the oracle's divisions by the five-variable Vandermonde take about 20 s
    even here."""
    ker = Kernel(S)
    P = ShuffleElem(MultiPoly.constant(S.from_int(3), 2, S))
    Q = ShuffleElem(MultiPoly.constant(S.from_int(-(2**40)), 3, S))
    assert star_product(P, Q, ker) == star_product_oracle(P, Q, ker)


@pytest.mark.parametrize(
    "P, Q",
    [
        ({(0,): 1}, {(0,): -1}),
        ({(0,): 1}, {(1, 1): 1}),
        ({(1, 1): 1}, {(0,): 1}),
        ({(0,): 1}, {(2, 2, 2): 1}),
        ({(2, 2, 2): 1}, {(0,): 1}),
    ],
)
def test_star_product_past_the_plain_product_bound(P, Q):
    """Results with a kappa-coefficient of at least 2^bitlen(B), where
    B = Σ‖p‖₁·Σ‖q‖₁·max‖h‖∞ bounds the coefficients of P·Q·H_{r,s}: a slot
    width without star_product's growth factor decodes them wrongly.  The
    coefficient of Q puts B just below a power of two.  No such input was
    found for (2,2) or (2,3): over monomial symmetric factors with
    exponents up to 8 and 4 (and so, by the triangle inequality, over
    their combinations) the largest result coefficient stays within 2/3
    and 3/10 of B."""
    ker = Kernel(F)
    r, s = len(next(iter(P))), len(next(iter(Q)))
    hmax = norm_inf(h.num for h in ker.cross_factor(r, s).terms.values())
    c = 2**40
    top = 1 << (c * c * hmax).bit_length()
    d = (top - 1) // (c * hmax)
    P = ShuffleElem(MultiPoly(r, {e: F.from_int(c * v) for e, v in P.items()}, F))
    Q = ShuffleElem(MultiPoly(s, {e: F.from_int(d * v) for e, v in Q.items()}, F))
    bound = c * d * hmax
    assert bound.bit_length() == top.bit_length() - 1
    got = star_product(P, Q, ker)
    assert got == star_product_oracle(P, Q, ker)
    assert max(max(x.num) for x in got.terms.values()) >= top


def _is_dominant(e):
    return list(e) == sorted(e, reverse=True)


@pytest.mark.parametrize("field", [F, S])
def test_star_product_keeps_the_dominant_terms_of_the_full_term_product(field):
    """Shapes (1,1), (1,2), (2,1) and (2,2), exact and at kappa = 7/3:
    the product stores only weakly decreasing exponent vectors, and its
    expansion is the product on every monomial (the construction it
    replaced)."""
    rng = random.Random(4242)
    ker = Kernel(field)
    for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for _ in range(2):
            P, Q = _random_elem(rng, r, field), _random_elem(rng, s, field)
            got = star_product(P, Q, ker)
            assert got.terms and all(map(_is_dominant, got.terms))
            assert expanded(got) == star_product_full_terms(P, Q, ker)


@pytest.mark.parametrize("n, degree", [(2, 1), (3, 3), (4, 3), (3, 4)])
def test_dominant_part_keeps_exactly_the_weakly_decreasing_vectors(n, degree):
    """Every exponent vector with entries up to degree, packed at the
    width of degree, each slot's top value 2^(ew-1) - 1 included: the
    guard-bit test keeps the weakly decreasing ones."""
    ew = _slot_width(degree)
    box = list(itertools.product(range(degree + 1), repeat=n))
    packed = {linalg._pack(e, ew): 1 for e in box}
    got = _dominant_part(packed, n, [1], None, ew, S)
    assert set(got.terms) == {e for e in box if _is_dominant(e)}


def test_only_the_constructor_checks_symmetry(monkeypatch):
    """Sums, differences, scalings and star products make no symmetry
    check; a polynomial coming in makes one, and a non-symmetric one is
    refused."""
    ker = Kernel(F)
    rng = random.Random(5)
    P, Q = _random_elem(rng, 2, F), _random_elem(rng, 1, F)
    calls = []
    is_symmetric = MultiPoly.is_symmetric
    monkeypatch.setattr(
        MultiPoly, "is_symmetric", lambda p: calls.append(p) or is_symmetric(p)
    )
    R = star_product(Q, Q, ker)
    (P + R - P.scale(F.kappa)).scale(F.from_int(3))
    star_product(star_product(P, Q, ker), Q, ker)
    assert calls == []
    ShuffleElem(expanded(P))
    assert len(calls) == 1
    x, y = z(0), z(1)
    for poly in (x, x * x * y + x * y * y * 2, x * y + x):
        with pytest.raises(ValueError):
            ShuffleElem(poly)


@pytest.mark.parametrize("field", [F, S])
def test_dominant_and_full_coordinates_have_the_same_rank(field):
    """On the rank-3 words at d <= 4, the coordinates over dominant
    exponent vectors and over every monomial have the same rank at every
    certificate point: the full columns repeat the dominant ones."""
    sc = ShuffleContext(field)
    for d in range(5):
        words, _ = sc.free.rank3_relations(d)
        images = [sc.realize.word(w) for w in words]
        full = [expanded(e).terms for e in images]
        basis = sorted(set().union(*full))
        rows = [
            linalg.cleared([t.get(m, field.zero) for m in basis], field)[1]
            for t in full
        ]
        dominant = ShuffleElem.coordinates(images)
        assert len(dominant[0]) < len(basis)
        for pt in linalg.CERTIFICATE_POINTS:
            assert linalg.rank_lower_bound(dominant, pt) == linalg.rank_lower_bound(
                rows, pt
            )


def test_slot_widths_bound_the_full_factors(monkeypatch):
    """star_product sizes its slots from the full P and Q, each dominant
    numerator counted once per member of its orbit: it passes
    ``_slot_width`` the values the full-term product does.  A bound from
    the dominant terms alone would undersize w, and no decode would
    report it."""
    import conftest

    from wsh import shuffle

    rng = random.Random(77)
    ker = Kernel(F)
    for r, s in ((2, 1), (1, 2), (2, 2), (3, 1)):
        P, Q = _random_elem(rng, r, F), _random_elem(rng, s, F)
        seen = []
        for module, product_ in (
            (shuffle, star_product),
            (conftest, star_product_full_terms),
        ):
            calls = []
            record = lambda b, calls=calls: calls.append(b) or _slot_width(b)
            monkeypatch.setattr(module, "_slot_width", record)
            product_(P, Q, ker)
            seen.append(sorted(calls))
        assert seen[0] == seen[1] and len(seen[0]) == 2
