"""Multivariate polynomials over the coefficient field."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from conftest import extended

from wsh.field import FieldElem, RationalFunctionField, SpecializedField
from wsh.multipoly import MultiPoly

F = RationalFunctionField()
S = SpecializedField(Fraction(7, 3))


def coefficient_pool(field):
    """Negative and large integers and kappa-denominators 1/kappa,
    1/(kappa+1), 1/(kappa^2-2)."""
    k, one = field.kappa, field.one
    ints = [field.from_int(c) for c in (-3, -1, 1, 2, 2**70, -(2**70) + 1)]
    return ints + [one / k, -one / (k + 1), (k + 2) / (k * k - 2), k * k - 3]


def random_poly(rng, nvars, field, terms=4, degree=2):
    pool = coefficient_pool(field)
    return MultiPoly(
        nvars,
        {
            tuple(rng.randint(0, degree) for _ in range(nvars)): rng.choice(pool)
            for _ in range(terms)
        },
        field,
    )


def degree_in(p, i):
    """Largest exponent of z_i in p (-1 for the zero polynomial)."""
    return max((e[i] for e in p.terms), default=-1)


def var(i, n=2):
    return MultiPoly.variable(i, n, F)


def test_ring_ops():
    x, y = var(0), var(1)
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert p - p == MultiPoly.zero(2, F)
    assert (p * 2) / 2 == p


def test_zero_coefficients_pruned():
    x = var(0)
    p = x - x
    assert not p.terms and not p


def test_permute_vars():
    x, y = var(0), var(1)
    p = x**2 * y
    assert p.permute_vars([1, 0]) == y**2 * x


def test_symmetrize_and_is_symmetric():
    x, y = var(0), var(1)
    p = x**2 * y
    s = p.symmetrize()
    assert s.is_symmetric()
    assert s == x**2 * y + y**2 * x
    assert not p.is_symmetric()


def is_symmetric_oracle(p):
    """Invariance under each adjacent transposition, by permuted copies."""
    for i in range(p.nvars - 1):
        perm = list(range(p.nvars))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if p.permute_vars(perm) != p:
            return False
    return True


@pytest.mark.parametrize("field", [F, S])
@pytest.mark.parametrize("nvars", [3, 4])
def test_is_symmetric_finds_a_missing_member_or_an_unequal_coefficient(field, nvars):
    """Symmetrized polynomials with large and kappa-rational coefficients
    are symmetric; without any one member of an orbit of two or more
    terms, or with one coefficient changed, they are not, and a
    polynomial symmetric in all but the last two variables is not."""
    rng = random.Random(nvars)
    for _ in range(3):
        p = random_poly(rng, nvars, field, terms=3).symmetrize()
        assert p.is_symmetric()
        for e, c in p.terms.items():
            moved = len(set(e)) > 1  # e is not fixed by every permutation
            missing = MultiPoly(nvars, {f: d for f, d in p.terms.items() if f != e}, field)
            changed = MultiPoly(nvars, {**p.terms, e: c + field.one}, field)
            for q in (missing, changed):
                assert q.is_symmetric() == is_symmetric_oracle(q) == (not moved)
    z = [MultiPoly.variable(i, nvars, field) for i in range(nvars)]
    head = sum(z[1 : nvars - 1], z[0])
    for q in (z[-1], head, head * head * z[-1] + z[-1] * z[-1]):
        assert not q.is_symmetric() and not is_symmetric_oracle(q)
    assert (head + z[-1]).is_symmetric()


@pytest.mark.parametrize("field", [F, S])
def test_is_symmetric_matches_permuted_copies(field):
    """The zero polynomial in 0..4 variables is symmetric; seeded
    polynomials, half of them symmetrized in the first variables only,
    agree with the permuted-copy predicate."""
    for nvars in range(5):
        assert MultiPoly.zero(nvars, field).is_symmetric()
    rng = random.Random(31)
    for nvars in (2, 3, 4):
        for t in range(8):
            p = random_poly(rng, nvars, field, terms=rng.randint(1, 5))
            if t % 2:
                q = random_poly(rng, nvars - 1, field, terms=2).symmetrize()
                p = extended(q, nvars)
            assert p.is_symmetric() == is_symmetric_oracle(p)


def test_extend_and_substitute():
    x = MultiPoly.variable(0, 1, F)
    p = (x + 1) ** 2
    q = extended(p, 3, offset=1)
    assert q.nvars == 3 and degree_in(q, 1) == 2
    evaluated = q.substitute({1: F.from_int(2)})
    assert evaluated == MultiPoly.constant(F.from_int(9), 3, F)


def evaluate(p, point):
    """p at the point, a field element per variable."""
    return sum(
        (c * prod(x**k for x, k in zip(point, e)) for e, c in p.terms.items()),
        p.field.zero,
    )


@pytest.mark.parametrize("field", [F, S])
def test_substitute_polynomials_matches_evaluation(field):
    # substituting polynomials (and field elements) for some variables at
    # once, then evaluating, equals evaluating with those variables set to
    # the values of the substituted polynomials; a value may hold the
    # variable it replaces
    rng = random.Random(20)
    for _ in range(20):
        p = random_poly(rng, 3, field, terms=5, degree=3)
        values = {
            0: random_poly(rng, 3, field, terms=3),
            2: rng.choice([random_poly(rng, 3, field, terms=2), field.from_int(-2)]),
        }
        got = p.substitute(values)
        assert got.nvars == 3
        for _ in range(3):
            point = [field.from_int(rng.randint(-4, 4)) for _ in range(3)]
            moved = [
                evaluate(values[i], point) if isinstance(values.get(i), MultiPoly)
                else values.get(i, x)
                for i, x in enumerate(point)
            ]
            assert evaluate(got, point) == evaluate(p, moved)


def test_divexact_roundtrip():
    x, y = var(0), var(1)
    a = x**2 - y**2 + x * y + 1
    b = x + y + 2
    assert (a * b).divexact(b) == a
    with pytest.raises(ValueError):
        (a * b + 1).divexact(b)


def test_total_degree_and_coefficient():
    x, y = var(0), var(1)
    p = x**3 * y + y
    assert p.total_degree() == 4
    assert p.terms == {(3, 1): F.one, (0, 1): F.one}


def values_at_kappa(p, kappa):
    """The terms of p as (exponent, Fraction) pairs, the coefficients
    evaluated at kappa in exact mode."""
    if p.field.mode == "exact":
        return [(e, c.evaluate(kappa)) for e, c in p.terms.items()]
    return list(p.terms.items())


def value(terms, point):
    return sum(c * prod(x**k for x, k in zip(point, e)) for e, c in terms)


def assert_product_by_values(a, b, got, rng):
    """got equals a·b: it takes the value a(z)·b(z) at every point of a
    grid with one more seeded integer per variable than the degree of a·b
    in it, and a polynomial of degree at most g_i in each z_i that
    vanishes on such a grid is zero.  In exact mode the coefficients are
    evaluated at two rational kappa first (kappa specialized: at the
    field's)."""
    axes = [
        rng.sample(range(-50, 50), degree_in(a, i) + degree_in(b, i) + 1)
        for i in range(a.nvars)
    ]
    kappas = (Fraction(5, 3), Fraction(-11, 7)) if a.field.mode == "exact" else (None,)
    for kappa in kappas:
        va, vb, vg = (values_at_kappa(p, kappa) for p in (a, b, got))
        for point in product(*axes):
            assert value(vg, point) == value(va, point) * value(vb, point)


@pytest.mark.parametrize("field", [F, S])
def test_product_matches_termwise_oracle(field):
    """Seeded products in 0-3 variables with negative, ±2^70 and
    kappa-rational coefficients against evaluation at integer points
    (``assert_product_by_values``)."""
    rng = random.Random(404)
    zero = MultiPoly.zero
    for nvars in (0, 1, 2, 3):
        for _ in range(6):
            a = random_poly(rng, nvars, field, terms=rng.randint(1, 6))
            b = random_poly(rng, nvars, field, terms=rng.randint(1, 6))
            got = a * b
            assert_product_by_values(a, b, got, rng)
            assert all(type(c) is type(field.one) for c in got.terms.values())
            assert all(c != field.zero for c in got.terms.values())
        a = random_poly(rng, nvars, field)
        assert a * zero(nvars, field) == zero(nvars, field)
        assert zero(nvars, field) * a == zero(nvars, field)


def test_product_cancels_to_zero_terms():
    x, y = var(0), var(1)
    p = (x + y * F.kappa) * (x - y * F.kappa)
    assert p == x**2 - y**2 * F.kappa**2
    assert (0, 1) not in p.terms and (1, 1) not in p.terms


def test_product_coefficient_at_the_slot_bound():
    """Seven equal terms on each side meet on one monomial, whose middle
    kappa-coefficient is (Σ‖a‖₁)·max‖b‖∞ exactly, the largest value a
    packed product of the numerators would have to hold."""
    m = 2**40 - 1
    c = FieldElem((m, m, m))
    a = MultiPoly(2, {(i, 6 - i): c for i in range(7)}, F)
    got = a * a
    assert_product_by_values(a, a, got, random.Random(6))
    assert got.terms[6, 6].num[2] == 7 * 3 * m * m
