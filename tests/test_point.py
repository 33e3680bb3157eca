"""Relations realized at one Kronecker point (``Realization.point``)
against the exact realization (``Realization.__call__``), the construction
the zero checks used before: at N = 5, exact and at kappa = 7/3, on the
seeded elements of the normal-order check and their normal orders, every
relation of the presentation suite, the relations of the positive suite
and the negative realization."""

from fractions import Fraction
from math import lcm

import pytest

from wsh import linalg
from wsh._poly import pmul
from wsh.field import FieldElem, RationalFunctionField, SpecializedField
from wsh.operators import OpContext, WindowError, zero_or_skip
from wsh.presentation import FreeAlgebra, FreeElement, PresentationContext, random_elements

N = 5


@pytest.fixture(scope="module", params=[None, Fraction(7, 3)], ids=["exact", "7/3"])
def ctx(request):
    kappa = request.param
    F = RationalFunctionField() if kappa is None else SpecializedField(kappa)
    return OpContext(F, N)


def cases(ctx):
    """(realization, element) pairs: the seeded elements and their normal
    orders, relation_set(), one element of each FREE_RELATIONS family, and
    the negative cross, cubic and quadratic relations, the quadratic
    reversed as well (nonzero)."""
    alg, free = FreeAlgebra(ctx.field, L=5, K=5), ctx.free
    seeded = random_elements(alg, 8, 421)
    positive = seeded + [x.normal_order() for x in seeded]
    positive += [el for _, el in alg.relation_set()]
    positive += [
        free.commuting_relation(1, 3),
        free.cross_relation(2, 1),
        free.quadratic_relation(),
        free.cubic_relation(),
        free.rank2_relation(1, 0),
        free.exchange_relation(3, 4),
    ]
    quad = free.quadratic_relation()
    negative = [free.cross_relation(l, k) for l in (1, 2, 3) for k in (0, 1, 2)]
    negative += [free.cubic_relation(), quad, quad.opposite()]
    return [(ctx.realize, el) for el in positive] + [
        (ctx.realize_negative, el) for el in negative
    ]


def build(image):
    try:
        return image()
    except WindowError:
        return None


def test_point_image_unpacks_to_the_exact_numerators(ctx, monkeypatch):
    # point(el) is P(2^W) over 1 for P = L·D·rho(el), L the lcm of the word
    # denominators and D the cleared coefficient denominator: unpacked at W
    # it is P, whose entries times den equal L·D times the exact
    # numerators; the bound B is at least the l1-norm of every entry of P,
    # and B < 2^(W-1)
    exact = ctx.field.mode == "exact"
    nonzero = 0
    for rho, el in cases(ctx):
        want = build(lambda: rho(el))
        bounds = []
        slot_width = linalg._slot_width
        monkeypatch.setattr(
            linalg, "_slot_width", lambda b: bounds.append(b) or slot_width(b)
        )
        got = build(lambda: rho.point(el))
        monkeypatch.undo()
        if want is None:
            assert got is None
            continue
        assert got.rank == want.rank and got.den == 1
        assert sorted(got.blocks) == sorted(want.blocks)
        D = linalg.cleared(list(el.terms.values()), ctx.field)[0]
        L = lcm(*(rho.word(w).den for w in el.terms))
        if exact:
            (bound,) = bounds
            width = got.field.kappa.numerator.bit_length() - 1
            assert got.field.kappa == 2**width and width % 64 == 0
            assert bound < 2 ** (width - 1)
        else:
            assert bounds == [] and got.field is ctx.field
        for n, block in want.blocks.items():
            for row, point_row in zip(block, got.blocks[n]):
                for y, x in zip(row, point_row):
                    if exact:
                        p = linalg._unpack(x, width)
                        assert sum(map(abs, p)) <= bound
                        assert pmul(p, (want.den,)) == pmul(pmul(y, D), (L,))
                    else:
                        assert x * want.den == L * D * y
        assert got.is_zero() == want.is_zero()
        assert got.first_failing_block() == want.first_failing_block()
        nonzero += not want.is_zero()
    # the reversed negative quadratic relation, and the seeded elements
    assert nonzero >= 2
    quad = ctx.free.quadratic_relation().opposite()
    assert not ctx.realize_negative.point(quad).is_zero()


def test_a_coefficient_off_by_one_fails_like_the_oracle(ctx):
    # every relation that vanishes, with one coefficient raised by 1, fails
    # with the exact oracle's window and first failing block
    one, failed = ctx.field.one, 0
    for rho, el in cases(ctx):
        if not el.terms or build(lambda: rho(el)) is None or not rho(el).is_zero():
            continue
        for w in sorted(el.terms)[:2]:
            bumped = FreeElement(el.algebra, {**el.terms, w: el.terms[w] + one})
            got = zero_or_skip("r", lambda: rho.point(bumped)).as_dict()
            want = zero_or_skip("r", lambda: rho(bumped)).as_dict()
            assert got == want
            failed += want["status"] == "fail"
    assert failed > 40


def test_images_at_different_points_are_not_combined(ctx6):
    # ctx6 is exact: its letters packed at two widths, or packed and not,
    # are refused by +, - and compose
    a, b = ctx6.d1(0).at_point(64), ctx6.d1(0).at_point(128)
    c = ctx6.sekiguchi(2).at_point(64)
    for mix in (
        lambda: a + b,
        lambda: a - b,
        lambda: a - ctx6.d1(0),
        lambda: c.compose(b),
        lambda: ctx6.sekiguchi(2).compose(a),
    ):
        with pytest.raises(ValueError, match="different values of kappa"):
            mix()
    assert c.compose(a) == ctx6.sekiguchi(2).compose(ctx6.d1(0)).at_point(64)


def test_relation_zero_checks_unpack_nothing_and_multiply_no_field_element(
    field, monkeypatch
):
    # once the letters are built (and the relation elements, whose
    # products are field arithmetic), the zero checks pack each letter,
    # multiply int matrices and read the verdict from ints
    ctx = OpContext(field, 6)
    pres = PresentationContext(ctx, L=5, K=5)
    for l in range(1, 6):
        ctx.sekiguchi(l)
    for k in range(6):
        ctx.d1(k)
    relations = pres.algebra.relation_set()
    monkeypatch.setattr(pres.algebra, "relation_set", lambda: relations)
    calls = []
    unpack, mul = linalg._unpack, FieldElem.__mul__
    monkeypatch.setattr(linalg, "_unpack", lambda *a: calls.append("unpack") or unpack(*a))
    monkeypatch.setattr(FieldElem, "__mul__", lambda *a: calls.append("mul") or mul(*a))
    outs = pres.relation_zero_checks()
    assert len(outs) == len(relations) and all(o.status == "pass" for o in outs)
    assert calls == []
    # the counters see the exact realization
    ctx.realize(relations[-1][1])
    assert "unpack" in calls
