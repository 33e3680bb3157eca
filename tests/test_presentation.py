"""Abstract generators and relations: rewriting and the realizations."""

import hashlib
from fractions import Fraction

import pytest
from conftest import block, column, evaluate_vectors_oracle, fraction_rank_oracle

from wsh import linalg
from wsh.cli import main
from wsh.field import FieldElem, SpecializedField
from wsh.operators import GradedOp, OpContext
from wsh.presentation import (
    T0,
    T1,
    FreeAlgebra,
    FreeElement,
    IndexOverflowError,
    Realization,
    commutator,
    kernel_certificate,
    random_elements,
)
from wsh.shuffle import ShuffleContext, ShuffleElem


@pytest.fixture(scope="module")
def A(field):
    return FreeAlgebra(field, L=5, K=5)


@pytest.fixture(scope="module")
def ctx5(field):
    return OpContext(field, 5)


def evaluate_oracle(el, opctx):
    """Uncached evaluation: every word is composed left to right onto the
    identity operator."""
    total = None
    for w in sorted(el.terms, key=lambda w: (len(w), w)):
        op = opctx.identity_op()
        for kind, idx in reversed(w):
            gen = opctx.sekiguchi(idx) if kind == T0 else opctx.d1(idx)
            op = gen.compose(op)
        op = op.scale(el.terms[w])
        total = op if total is None else total + op
    if total is None:
        return opctx.identity_op().scale(opctx.field.zero)
    return total


def assert_same_operator(a, b):
    assert a.rank == b.rank
    assert sorted(a.blocks) == sorted(b.blocks)
    assert a == b


def test_cross_rewrite_single_step(A):
    # t0_2 t1_0 -> t1_0 t0_2 + t1_1
    lhs = (A.t0(2) * A.t1(0)).normal_order()
    rhs = (A.t1(0) * A.t0(2) + A.t1(1)).normal_order()
    assert lhs == rhs
    assert lhs.terms == {
        (("t1", 0), ("t0", 2)): A.field.one,
        (("t1", 1),): A.field.one,
    }


def test_normal_order_idempotent(A):
    x = A.t0(3) * A.t1(1) * A.t0(2) * A.t1(0)
    once = x.normal_order()
    assert once.normal_order() == once


def test_t0_letters_commute_and_sort(A):
    a = (A.t0(3) * A.t0(1)).normal_order()
    b = (A.t0(1) * A.t0(3)).normal_order()
    assert a == b
    assert list(a.terms) == [(("t0", 1), ("t0", 3))]


def test_index_overflow_message(A):
    # rewriting t0_5 past t1_4 needs t1_8, beyond the K = 5 window
    with pytest.raises(IndexOverflowError, match="index overflow; raise K") as exc:
        (A.t0(5) * A.t1(4) * A.t1(4)).normal_order()
    assert str(exc.value).endswith(
        ": t0[5] t1[4] rewrites to t1[8], past the bound K = 5 (--kmax)"
    )


def test_evaluation_sends_t1_0_to_p1(A, ctx6):
    op = A.t1(0).evaluate(ctx6)
    assert column(op, ()) == {(1,): ctx6.field.one}


def test_evaluation_is_an_algebra_map(A, ctx6):
    x = A.t0(2) * A.t1(1)
    y = A.t1(0)
    assert (x * y).evaluate(ctx6) == x.evaluate(ctx6).compose(y.evaluate(ctx6))
    assert (x + y.scale(A.field.kappa)).evaluate(ctx6) == x.evaluate(
        ctx6
    ) + y.evaluate(ctx6).scale(A.field.kappa)


def test_relations_evaluate_to_zero(A, ctx6):
    assert A.cross_relation(2, 1).evaluate(ctx6).is_zero()
    assert A.quadratic_relation().evaluate(ctx6).is_zero()
    assert A.cubic_relation().evaluate(ctx6).is_zero()
    assert A.rank2_relation(0, 1).evaluate(ctx6).is_zero()


def test_normal_order_preserves_evaluation(A, ctx6):
    x = A.t0(2) * A.t1(1) * A.t0(3) * A.t1(0)
    assert x.evaluate(ctx6) == x.normal_order().evaluate(ctx6)


def test_quadratic_is_half_diagonal_rank2(A):
    lhs = A.quadratic_relation().scale(A.field.from_int(2)).normal_order()
    rhs = A.rank2_relation(0, 0).normal_order()
    assert lhs == rhs


def test_cubic_family_is_symmetric_and_starts_at_the_cubic_relation(A, ctx6):
    t = A.t1
    assert A.cubic_relation() == commutator(t(0), commutator(t(0), t(1)))
    assert A.cubic_family(0, 1, 2) == A.cubic_family(2, 0, 1)
    assert A.cubic_family(0, 1, 1) == A.cubic_family(1, 0, 1)
    assert ctx6.realize(A.cubic_family(0, 1, 1)).is_zero()


def test_rank3_relations_lie_on_their_words(ctx6):
    sizes = [[len(x) for x in ctx6.free.rank3_relations(d)] for d in range(7)]
    assert sizes == [[1, 0], [4, 1], [10, 2], [20, 6], [35, 15], [56, 31], [84, 56]]
    words, rels = ctx6.free.rank3_relations(6)
    assert all(sum(k for _, k in w) <= 6 for w in words)
    for el in rels:
        assert el.terms and set(el.terms) <= set(words)


@pytest.fixture(scope="module")
def realizations(ctx6):
    """(field, the operator realization at N = 6, the shuffle
    realization), exact and at kappa = 7/3."""
    ctxs = (ctx6, OpContext(SpecializedField(Fraction(7, 3)), 6))
    return [(c.field, c.realize, ShuffleContext(c.field).realize) for c in ctxs]


def test_kernel_certificate_rejects_a_non_relation(ctx6, realizations):
    words, rels = ctx6.free.rank2_relations(4)
    assert kernel_certificate(rels, words, ctx6.realize) == (True, 3, 3)
    word = ctx6.free.t1(0) * ctx6.free.t1(1)
    assert kernel_certificate(rels + [word], words, ctx6.realize) == (False, 4, 3)
    # one coefficient of a true relation doubled, in both realizations,
    # exact and at kappa = 7/3
    for field, *realize in realizations:
        words, rels = FreeAlgebra(field, L=5, K=5).rank2_relations(4)
        terms = dict(rels[0].terms)
        w = next(iter(terms))
        terms[w] = terms[w] * 2
        bad = FreeElement(rels[0].algebra, terms)
        for rho in realize:
            included, span, kernel = kernel_certificate(rels, words, rho)
            assert included and span == kernel == 3
            assert not kernel_certificate(rels[1:] + [bad], words, rho)[0]


def _counting_ranks(monkeypatch):
    """Record (rank, point) of every linalg.rank_lower_bound call."""
    calls = []
    rank = linalg.rank_lower_bound

    def counting(rows, point=None):
        r = rank(rows, point)
        calls.append((r, point))
        return r

    monkeypatch.setattr(linalg, "rank_lower_bound", counting)
    return calls


def test_certificate_stops_at_the_first_point_where_the_bounds_meet(
    ctx8, monkeypatch
):
    # the rank-3 pair at the reference window: V and both image matrices
    # ranked once, at the first point
    sc = ShuffleContext(ctx8.field)
    calls = _counting_ranks(monkeypatch)
    outcomes = sc.rank3_kernel_compare(6, ctx8)
    assert [o.status for o in outcomes] == ["pass", "pass"]
    assert [pt for _, pt in calls] == [linalg.CERTIFICATE_POINTS[0]] * 3


def test_certificate_goes_on_past_a_point_where_the_span_drops(ctx6, monkeypatch):
    # a relation scaled by kappa - a vanishes at the first point kappa = a,
    # where V has rank 2; the second point certifies the span 3
    F = ctx6.field
    words, rels = ctx6.free.rank2_relations(4)
    rels[0] = rels[0].scale(F.kappa - F.from_fraction(linalg.CERTIFICATE_POINTS[0]))
    calls = _counting_ranks(monkeypatch)
    got = kernel_certificate(rels, words, ctx6.realize, ShuffleContext(F).realize)
    assert got == (True, 3, 3, 3)
    assert calls[0] == (2, linalg.CERTIFICATE_POINTS[0])
    assert [pt for _, pt in calls] == [
        pt for pt in linalg.CERTIFICATE_POINTS[:2] for _ in range(3)
    ]


def test_certificate_at_a_rational_kappa_ranks_at_one_point(monkeypatch, capsys):
    # at kappa = 7/3 the ring entries are ints, whose rank no point moves:
    # in a window where the span and the kernel bound never meet, V and M
    # are ranked once each, and the report keeps its pinned bytes
    calls = _counting_ranks(monkeypatch)
    argv = ["verify", "presentation", "--max-degree", "5", "--specialize", "7/3"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert [pt for _, pt in calls] == [linalg.CERTIFICATE_POINTS[0]] * 2
    assert hashlib.sha256(out.encode()).hexdigest().startswith("132640e4278d8a89")


def test_certificate_of_no_elements_is_included(ctx6, realizations):
    words, _ = ctx6.free.rank2_relations(4)
    assert kernel_certificate([], words, ctx6.realize) == (True, 0, 3)
    for _, *realize in realizations:
        assert kernel_certificate([], words, *realize) == (True, 0, 3, 3)


def _field_rows(images):
    """The coordinates of operators or shuffle elements as field-element
    vectors: the decoded flattened operators, or the coefficients over
    the sorted union of the dominant exponent vectors."""
    if isinstance(images[0], GradedOp):
        return [
            [x for n in sorted(op.blocks) for row in block(op, n) for x in row]
            for op in images
        ]
    basis = sorted(set().union(*(e.terms for e in images)))
    zero = images[0].field.zero
    return [[e.terms.get(m, zero) for m in basis] for e in images]


def _ring_as_field(x, field):
    if field.mode == "specialized":
        return Fraction(x)
    return FieldElem(x) if x else field.zero


def test_coordinates_are_the_images_over_one_denominator(realizations):
    # each row of the image matrix is the image times one common
    # denominator; mixed denominators: int and kappa-polynomial scalars on
    # word images that carry their own (powers of q at kappa = p/q)
    for field, *realize in realizations:
        k = field.kappa
        scalars = [field.one, field.from_fraction(Fraction(1, 2)), k / 3, k * k - 5]
        words = [((T1, a), (T1, b)) for a in range(3) for b in range(3)]
        for rho in realize:
            images = [rho.word(w) for w in words]
            images += [images[i].scale(c) for i, c in enumerate(scalars)]
            if isinstance(images[0], ShuffleElem) and field.mode == "exact":
                # operators refuse a kappa-polynomial denominator
                images.append(images[0].scale(field.one / (k + 1)))
            rows = rho.coordinates(images)
            vecs = _field_rows(images)
            i, j = next(
                (i, j) for i, v in enumerate(vecs) for j, x in enumerate(v) if x
            )
            den = _ring_as_field(rows[i][j], field) / vecs[i][j]
            for row, vec in zip(rows, vecs):
                assert [_ring_as_field(x, field) for x in row] == [den * x for x in vec]


def test_certificate_ranks_match_the_fraction_oracle(realizations):
    # V and M of the rank-2 (K = 4, 5) and rank-3 (d <= 4) certificates,
    # in both realizations, exact and at kappa = 7/3
    for field, *realize in realizations:
        alg = FreeAlgebra(field, L=None, K=None)
        pairs = [alg.rank2_relations(K) for K in (4, 5)]
        pairs += [alg.rank3_relations(d) for d in range(5)]
        _check_certificate_ranks(field, realize, pairs)


def _check_certificate_ranks(field, realize, pairs):
    for words, rels in pairs:
        index = {w: i for i, w in enumerate(words)}
        vecs = []
        for el in rels:
            vec = [field.zero] * len(words)
            for w, c in el.terms.items():
                vec[index[w]] = c
            vecs.append(vec)
        V = [linalg.cleared(v, field)[1] for v in vecs]
        for rho in realize:
            images = [rho.word(w) for w in words]
            M = rho.coordinates(images)
            for rows, fvecs in ((V, vecs), (M, _field_rows(images))):
                want = None
                for pt in linalg.CERTIFICATE_POINTS:
                    # at kappa = 7/3 the rows are constants: one oracle rank
                    if want is None or field.mode == "exact":
                        want = fraction_rank_oracle(evaluate_vectors_oracle(fvecs, pt))
                    assert linalg.rank_lower_bound(rows, pt) == want


def test_cached_evaluation_matches_oracle_on_random_words(A, ctx5):
    # the seeded elements of the normal-order soundness check
    for x in random_elements(A, 8, 421):
        for el in (x, x.normal_order()):
            assert_same_operator(el.evaluate(ctx5), evaluate_oracle(el, ctx5))


def test_cached_evaluation_matches_oracle_on_relations(A, ctx5):
    for rid, el in A.relation_set():
        got = el.evaluate(ctx5)
        assert_same_operator(got, evaluate_oracle(el, ctx5))
        assert got.is_zero(), rid


def test_exchange_relation_realizes_to_zero(ctx5):
    assert ctx5.realize(ctx5.free.exchange_relation(0, 0)).is_zero()


def test_quadratic_on_the_negative_half(ctx5):
    quad = ctx5.free.quadratic_relation()
    # the anti-homomorphic image vanishes ...
    assert ctx5.realize_negative(quad).is_zero()
    # ... the homomorphic image onto the lowering operators does not
    hom = Realization({T1: ctx5.lowering}, GradedOp.compose, ctx5.identity_op)
    image = hom(quad)
    assert not image.is_zero()
    assert_same_operator(ctx5.realize_negative(quad.opposite()), image)
