"""Operators in the ring of their entries: every generator and relation
operator against the field-entry oracle, canonical exact entries,
products at the edge of their slot, and no field arithmetic in the
operator algebra."""

from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    FieldOp,
    FieldOpContext,
    evaluate_vectors_oracle,
    fraction_rank_oracle,
    mat_is_zero,
)

from wsh import linalg
from wsh.field import FieldElem, RationalFunctionField, SpecializedField
from wsh.operators import GradedOp, OpContext, WindowError
from wsh.presentation import PresentationContext, T1, random_elements
from wsh.report import Config, fock_suite, positive_suite, presentation_suite
from wsh.shc import ShcContext

KAPPAS = [None, Fraction(7, 3), Fraction(-7919, 1201)]
N = 6
L = K = 5


def make_field(kappa):
    return RationalFunctionField() if kappa is None else SpecializedField(kappa)


@pytest.fixture(scope="module", params=KAPPAS, ids=["exact", "7/3", "-7919/1201"])
def pair(request):
    F = make_field(request.param)
    return OpContext(F, N), FieldOpContext(F, N)


def assert_matches(op, ref):
    """The same window and, block by block, the same field elements."""
    assert op.rank == ref.rank
    assert sorted(op.blocks) == sorted(ref.blocks)
    for n, b in ref.blocks.items():
        assert op.block(n) == b, "block %d" % n
    assert op.is_zero() == ref.is_zero()


def assert_same_build(build, build_ref):
    """build() matches build_ref(), or both have an empty window."""
    try:
        op = build()
    except WindowError:
        with pytest.raises(WindowError):
            build_ref()
        return
    assert_matches(op, build_ref())


def test_generators_equal_the_oracle(pair):
    ctx, ref = pair
    for l in range(1, N + 1):
        assert_matches(ctx.multiplication(l), ref.multiplication(l))
    for l in range(1, 8):
        assert_matches(ctx.sekiguchi(l), ref.sekiguchi(l))
    for r in range(1, 4):
        for d in range(4):
            assert_matches(ctx.drd(r, d), ref.drd(r, d))
        for d in range(3):
            assert_matches(ctx.dprime(r, d), ref.dprime(r, d))
    for k in range(4):
        assert_matches(ctx.lowering(k), ref.lowering(k))
    assert_matches(ctx.identity_op(), ref.identity_op())


def positive_relations():
    """The relation ids and arguments of the positive suite at L = K = 5,
    with the exchange samples of the shuffle suite."""
    out = [("def1", l, k) for l in range(1, L + 1) for k in range(l + 1, L + 1)]
    out += [("def2", l, k) for l in range(1, L + 1) for k in range(K)]
    out += [("def3",), ("def4",)]
    out += [("rank2", k, l) for k in range(3) for l in range(3)]
    out += [("recursion", l) for l in range(2, L + 1)]
    out += [("kl_identity", k, l) for k in range(1, L) for l in range(1, L + 1 - k)]
    out += [("exchange", l, k) for l in (3, 4) for k in (3, 4)]
    return out


def test_positive_relation_operators_equal_the_oracle(pair):
    ctx, ref = pair
    for rid, *args in positive_relations():
        assert_same_build(
            lambda: ctx._relation(rid, *args), lambda: ref.relation(rid, *args)
        )
    F = ctx.field
    for r in range(1, 4):
        assert_matches(
            ctx.dprime(r, 0) - ctx.drd(r, 0), ref.dprime(r, 0) - ref.drd(r, 0)
        )
        for d in (1, 2):
            c = F.from_int(r) ** (d - 1)
            assert_matches(
                ctx.dprime(r, d) - ctx.drd(r, d).scale(c),
                ref.dprime(r, d) - ref.drd(r, d).scale(c),
            )


def test_presentation_operators_equal_the_oracle(pair):
    ctx, ref = pair
    pres = PresentationContext(ctx, L=L, K=K)
    alg = pres.algebra
    for _, el in alg.relation_set():
        assert_same_build(lambda: ctx.realize(el), lambda: ref.realize(el))
    x = alg.t0(2) * alg.t0(3) * alg.t1(0)
    samples = [x, x.normal_order()] + random_elements(alg, 8, 421)
    for el in samples + [y.normal_order() for y in samples]:
        assert_matches(ctx.realize(el), ref.realize(el))
    words, _ = alg.rank2_relations(K)
    for w in words:
        assert_matches(ctx.realize.word(w), ref.realize.word(w))
        assert all(kind == T1 for kind, _ in w)


def test_fock_operators_equal_the_oracle(pair):
    ctx, ref = pair
    shc = ShcContext(ctx)
    alg = ctx.free
    for l in range(1, L + 1):
        for k in range(K + 1):
            if 0 <= k + l - 1 <= K:
                el = alg.cross_relation(l, k)
                assert_same_build(
                    lambda: ctx.realize_negative(el), lambda: ref.realize_negative(el)
                )
    quad = alg.quadratic_relation()
    for el in (alg.cubic_relation(), quad, quad.opposite()):
        assert_matches(ctx.realize_negative(el), ref.realize_negative(el))
    for h in range(5):
        for k in range(h + 1):
            assert_matches(shc.e_operator(k, h - k), ref.e_operator(k, h - k))


def test_flattened_operators_certify_the_oracle_rank(pair):
    # the image matrix of GradedOp.coordinates, and the cleared decoded
    # blocks, give the ranks of the Fraction oracle
    ctx, _ = pair
    words = [((T1, a), (T1, b)) for a in range(4) for b in range(4)]
    images = [ctx.realize.word(w) for w in words]
    rows = GradedOp.coordinates(images)
    vecs = [
        [x for n in sorted(op.blocks) for row in op.block(n) for x in row]
        for op in images
    ]
    for pt in linalg.CERTIFICATE_POINTS:
        want = fraction_rank_oracle(evaluate_vectors_oracle(vecs, pt))
        assert linalg.rank_lower_bound(rows, pt) == want
        vec_rows = [linalg.cleared(v, ctx.field)[1] for v in vecs]
        assert linalg.rank_lower_bound(vec_rows, pt) == want
        assert 0 < want < len(words)


def test_kappa_polynomial_denominators_are_refused(ctx6):
    # no operator of the suites has a kappa-polynomial denominator
    # (test_every_operator_denominator_is_an_int), and none is built
    F = ctx6.field
    d1, s2 = ctx6.d1(1), ctx6.sekiguchi(2)
    a = F.one / (F.kappa + F.one)
    b = F.kappa / (F.kappa * F.kappa - F.from_int(2))
    with pytest.raises(ValueError, match="not an integer"):
        d1.scale(a)
    with pytest.raises(ValueError, match="not an integer"):
        s2.scale(b)
    blocks = {n: [[x * a for x in row] for row in d1.block(n)] for n in d1.blocks}
    with pytest.raises(ValueError, match="not an integer"):
        GradedOp.from_field(1, blocks, F)
    # a rational scalar and a kappa-polynomial numerator are kept
    x = d1.scale(F.kappa / F.from_int(6)) + d1.compose(s2).scale(F.one / 4)
    assert x.den == 12
    rx = FieldOp.of(d1).scale(F.kappa / F.from_int(6))
    assert_matches(x, rx + FieldOp.of(d1).compose(FieldOp.of(s2)).scale(F.one / 4))


@pytest.mark.parametrize(
    "kappa", [None, Fraction(-7919, 1201)], ids=["exact", "-7919/1201"]
)
def test_every_operator_denominator_is_an_int(monkeypatch, kappa):
    # every D_{r,d} is integral over Z[kappa] up to a rational scalar, and
    # D_{-1,k} = kappa adj(D_{1,k}) = [d/dp_1, D_{0,k+1}] is too: each
    # generator, and every operator the positive, presentation and fock
    # suites build at N = 8, is over an int denominator; D_{-1,k} over 1
    # in exact mode
    F = make_field(kappa)
    ctx = OpContext(F, 8)
    dens = []
    init = GradedOp.__init__

    def recording(self, rank, blocks, field, den=1):
        dens.append(den)
        init(self, rank, blocks, field, den)

    monkeypatch.setattr(GradedOp, "__init__", recording)
    ops = [ctx.multiplication(l) for l in range(1, 7)]
    ops += [ctx.sekiguchi(l) for l in range(1, 10)]
    ops += [ctx.drd(r, d) for r in range(1, 4) for d in range(4)]
    ops += [ctx.dprime(r, d) for r in range(1, 4) for d in range(4)]
    lowering = [ctx.lowering(k) for k in range(9)]
    cfg = Config(N=8, specialize=kappa)
    records = [r for suite in (positive_suite, presentation_suite, fock_suite)
               for r in suite(cfg, ctx)]
    monkeypatch.undo()
    assert len(records) == 165
    assert all(type(op.den) is int for op in ops + lowering)
    assert len(dens) > 1000 and {type(d) for d in dens} == {int}
    if kappa is None:
        assert [op.den for op in lowering] == [1] * 9


# -- canonical entries ---------------------------------------------------------


def _canonical(op):
    """Every entry is () or a coefficient tuple with a nonzero last
    coefficient."""
    return all(
        type(x) is tuple and (not x or x[-1] != 0) and all(type(c) is int for c in x)
        for b in op.blocks.values()
        for row in b
        for x in row
    )


def test_exact_entries_are_canonical(ctx6):
    F = ctx6.field
    k = F.kappa
    d1, s2, s3, low = ctx6.d1(1), ctx6.sekiguchi(2), ctx6.sekiguchi(3), ctx6.lowering(1)
    d1s2 = d1.compose(s2)
    # (1 + kappa) x - kappa x cancels the leading coefficient of every entry
    # of d1 and d1·s2, and x - x every coefficient
    ops = {
        "from_field": low,
        "compose": d1s2,
        "+": d1s2.scale(k + 1) + d1s2.scale(-k),
        "-": d1.scale(k + 1) - d1.scale(k),
        "- mixed denominators": low.scale(F.one / 3) - low.scale(F.one / 2),
        "x - x": d1 - d1,
        "commutator": s2.commutator(s3),
        "scale by an int": d1.scale(-2),
        "scale by kappa": s2.scale(k),
        "scale by a fraction": low.scale(F.from_int(6) * k / F.from_int(35)),
        "scale by zero": d1.scale(F.zero),
        "zero_extended": low.compose(d1).zero_extended(0),
        "zero operator": s2._zero(),
    }
    for name, op in ops.items():
        assert _canonical(op), name
        assert _canonical(op.scale(F.from_int(3))), name
    assert ops["+"] == d1s2 and ops["-"] == d1 and ops["x - x"].is_zero()


def _first_failing_block(ref):
    """FieldOp's first source degree with a nonzero block, or None."""
    return next(
        (n for n in sorted(ref.blocks) if not mat_is_zero(ref.blocks[n], ref.field)),
        None,
    )


def test_zero_tests_on_cancelling_operators_agree_with_the_oracle(pair):
    ctx, ref = pair
    cases = [
        (ctx.d1(2) - ctx.d1(2), ref.d1(2) - ref.d1(2)),
        (ctx.sekiguchi(2).commutator(ctx.sekiguchi(3)),
         ref.sekiguchi(2).commutator(ref.sekiguchi(3))),
        (ctx.sekiguchi(2).commutator(ctx.drd(1, 0)),
         ref.sekiguchi(2).commutator(ref.drd(1, 0))),
        (ctx.lowering(1).compose(ctx.d1(0)).zero_extended(0) - ctx.identity_op(),
         ref.lowering(1).compose(ref.d1(0)) - ref.identity_op()),
    ]
    got = [(op.is_zero(), op.first_failing_block()) for op, _ in cases]
    want = [(r.is_zero(), _first_failing_block(r)) for _, r in cases]
    assert got == want
    assert [z for z, _ in got] == [True, True, False, False]


# -- the slot bound at its edge ----------------------------------------------


def _single(F, rank, n, rows):
    """An exact operator with one block, at source degree n, from integer
    kappa-polynomial rows (coefficient tuples)."""
    return GradedOp(rank, {n: rows}, F)


def test_coefficient_bound_attained_at_the_slot_edge():
    # 1x1 degree-0 blocks: the bounds of scale, compose and + are then
    # attained exactly, so a slot one bit narrower than the width rule
    # decodes a wrong value
    F = RationalFunctionField()
    for k in (1, 2, 3, 7, 8, 31, 32, 63, 64, 65, 100):
        for m in (2**k - 1, 2**k, 2**k + 1, -(2**k - 1), -(2**k)):
            x = _single(F, 0, 0, [[(m,)]])
            ref = FieldOp.of(x)
            assert ref.blocks[0] == [[F.from_int(m)]]
            for c in (2**k - 1, 2**k, -(2**k + 1), 3):
                assert_matches(x.scale(F.from_int(c)), ref.scale(F.from_int(c)))
            y = x.scale(F.from_int(2**k - 1))
            ry = ref.scale(F.from_int(2**k - 1))
            assert_matches(x.compose(y), ref.compose(ry))
            assert_matches(y.compose(y), ry.compose(ry))
            assert_matches(y + y, ry + ry)
            assert_matches(y + x.compose(y), ry + ref.compose(ry))
            assert_matches(y - y.scale(F.from_int(-1)), ry - ry.scale(F.from_int(-1)))


def test_bounds_attained_with_degree_and_inner_dimension():
    # entries m(1 + kappa + ... + kappa^d): the middle coefficient of a
    # product of p(3) = 3 such pairs is 3 (d+1) m^2, and that of such an
    # entry scaled by p itself is (d+1) m^2, the proved bounds
    F = RationalFunctionField()
    for k in (1, 5, 16, 33):
        m = 2**k - 1
        for d in (0, 1, 2, 4):
            p = (m,) * (d + 1)
            up = _single(F, 3, 0, [[p], [p], [p]])  # degree 0 -> 3
            down = _single(F, -3, 3, [[p, p, p]])  # degree 3 -> 0
            prod = down.compose(up)
            assert prod.block(0)[0][0].num[d] == 3 * (d + 1) * m * m
            assert_matches(prod, FieldOp.of(down).compose(FieldOp.of(up)))
            scaled = up.scale(FieldElem(p))
            assert scaled.block(0)[0][0].num[d] == (d + 1) * m * m
            assert_matches(scaled, FieldOp.of(up).scale(FieldElem(p)))


# -- no field arithmetic in the operator algebra -----------------------------


@pytest.mark.parametrize("kappa", [None, Fraction(7, 3)], ids=["exact", "7/3"])
def test_operator_algebra_does_no_field_arithmetic(monkeypatch, kappa):
    F = make_field(kappa)
    ctx = OpContext(F, 6)
    s2, s3, d1, d2 = ctx.sekiguchi(2), ctx.sekiguchi(3), ctx.d1(1), ctx.drd(2, 1)
    low, mult, one = ctx.lowering(2), ctx.multiplication(2), ctx.identity_op()
    k, half = F.kappa, F.one / F.from_int(2)
    three, kk = F.from_int(-3), F.kappa * F.kappa - F.one
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("__init__", "__mul__", "__rmul__", "__add__", "__radd__",
                 "__sub__", "__rsub__"):
        monkeypatch.setattr(FieldElem, name, counting(name, vars(FieldElem)[name]))
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(counting("Fraction", Fraction.__new__))
    )
    ops = [
        s3.compose(s2),
        d1.compose(s3) - s3.compose(d1),
        d2.compose(d1).scale(half) + mult.compose(d1).compose(one).scale(kk),
        low.compose(d1) - d1.compose(low).scale(k),
        s2.commutator(d2).scale(three) + d2.scale(k),
        s3.scale(F.zero) + s3,
    ]
    zeros = [op.is_zero() for op in ops] + [s2.commutator(s3).is_zero()]
    monkeypatch.undo()
    assert counts == Counter()
    assert zeros == [False] * len(ops) + [True]
