"""Exact linear algebra: elimination, spans, kernels, certificates."""

import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import (
    FieldSpan,
    evaluate_vectors_oracle,
    fraction_rank_oracle,
    identity_matrix,
    kernel_of_vectors,
    mat_inv_oracle,
    mat_mul_oracle,
    rank_of_vectors,
)

from wsh import _poly as P
from wsh import linalg
from wsh.field import FieldElem, RationalFunctionField, SpecializedField

F = RationalFunctionField()
S = SpecializedField(Fraction(7, 3))

# denominators of the random exact matrices: 1, kappa^j, kappa + 1 and a
# degree-3 factor, alone and in products
_K = F.kappa
_DENS = (F.one, _K, _K**3, _K + 1, _K**3 - 2 * _K + 5, _K**2 * (_K + 1))


def fe(n, d=1):
    return F.from_fraction(Fraction(n, d))


def ring_rows(vecs, field=F):
    return [linalg.cleared(v, field)[1] for v in vecs]


def certified_rank(rows):
    """The best rank bound over the certificate points, which the kernel
    certificate reaches when its bounds never meet."""
    return max(linalg.rank_lower_bound(rows, pt) for pt in linalg.CERTIFICATE_POINTS)


def kept_row(vec, field):
    """The row a SpanBasis keeps for a vector it takes first."""
    basis = FieldSpan(field)
    assert basis.add(vec)
    ((_, row),) = basis.rows
    return row


def test_mat_inv_roundtrip():
    k = F.kappa
    A = [[k, F.one], [F.one, k]]
    I = linalg.mat_mul(A, mat_inv_oracle(A, F), F)
    assert I == identity_matrix(2, F)


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        mat_inv_oracle([[F.one, F.one], [F.one, F.one]], F)


def test_span_basis_membership():
    b = FieldSpan(F)
    assert b.add([F.one, F.kappa, F.zero])
    assert b.add([F.zero, F.one, F.one])
    assert not b.add([F.one, F.kappa + 1, F.one])  # dependent
    assert b.dim == 2
    assert b.contains([F.one * 2, F.kappa * 2, F.zero])
    assert not b.contains([F.zero, F.zero, F.one])


def test_rank_of_vectors():
    vecs = [
        [F.one, F.kappa],
        [F.kappa, F.kappa * F.kappa],  # kappa times the first
        [F.zero, F.one],
    ]
    assert rank_of_vectors(vecs, F) == 2


def test_kernel_vectors_annihilate_originals():
    # regression: kernel coefficients must apply to the ORIGINAL vectors,
    # not the denominator-cleared rows (each row has its own scale)
    k = F.kappa
    v1 = [F.one / k, F.one]
    v2 = [F.one, k]
    v3 = [F.one / (k + 1), k / (k + 1)]
    rank, kernel = kernel_of_vectors([v1, v2, v3], F)
    assert rank == 1 and len(kernel) == 2
    for coeffs in kernel:
        acc = [F.zero, F.zero]
        for c, v in zip(coeffs, [v1, v2, v3]):
            acc = [a + c * x for a, x in zip(acc, v)]
        assert all(a == F.zero for a in acc)


def test_kernel_dimension_formula():
    vecs = [
        [F.one, F.zero, F.one],
        [F.zero, F.one, F.one],
        [F.one, F.one, F.kappa],
        [F.one, F.one, F.one * 2],  # sum of the first two
    ]
    rank, kernel = kernel_of_vectors(vecs, F)
    assert rank + len(kernel) == len(vecs)
    assert rank == 3


def test_rank_lower_bound_is_exact_here():
    k = F.kappa
    vecs = [[F.one, k], [k, k * k + 1]]
    assert linalg.rank_lower_bound(ring_rows(vecs)) == 2


def test_rank_drops_only_at_special_points():
    k = F.kappa
    # rank 2 generically, rank 1 at kappa = 1
    rows = ring_rows([[F.one, F.one], [F.one, k]])
    assert linalg.rank_lower_bound(rows, Fraction(1)) == 1
    assert linalg.rank_lower_bound(rows, linalg.CERTIFICATE_POINTS[0]) == 2
    assert certified_rank(rows) == 2


def test_certificate_at_kappa_zero_evaluates_at_zero():
    # kappa, 0 vanishes at kappa = 0: the rank there is 1, not the
    # generic 2 of the default point
    rows = [[(0, 1), ()], [(), (1,)]]
    assert linalg.rank_lower_bound(rows, 0) == 1
    assert linalg.rank_lower_bound(rows, Fraction(0)) == 1
    assert linalg.rank_lower_bound(rows) == 2


def test_rank_over_the_prime_field_only_drops():
    # an entry that is a multiple of p vanishes mod p: the bound drops
    # below the rank over Q(kappa), and it never rises above it
    p = linalg.PRIME
    assert linalg.rank_lower_bound([[p]]) == 0
    assert linalg.rank_lower_bound([[p, 1]]) == 1
    assert linalg.rank_lower_bound([[p, 1], [0, 1]]) == 1
    assert linalg.rank_lower_bound([[(p,)], [(0, 2 * p)]]) == 0
    with pytest.raises(ValueError):
        linalg.rank_lower_bound([[1]], Fraction(1, p))  # no map to F_p


def test_clear_denominators_strips_content():
    # cleared gives the numerators over the lcm of the denominators; the
    # echelon keeps the row without its content
    vec = [fe(2, 3), fe(4, 3)]
    assert linalg.cleared(vec, F) == ((3,), [(2,), (4,)])
    assert kept_row(vec, F) == [(1,), (2,)]


def _random_exact(rng, rows, cols):
    def entry():
        if rng.random() < 0.3:
            return F.zero
        num = F.zero
        for e in range(rng.randint(0, 2) + 1):
            num = num + F.from_int(rng.randint(-4, 4)) * _K**e
        return num / rng.choice(_DENS)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _random_rational(rng, rows, cols):
    def entry():
        if rng.random() < 0.3:
            return S.zero
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 35, 1024)))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _zero_line(rng, A, B, field):
    """Zero one row of A and one column of B."""
    if A and A[0]:
        A[rng.randrange(len(A))] = [field.zero] * len(A[0])
    if B and B[0]:
        j = rng.randrange(len(B[0]))
        for row in B:
            row[j] = field.zero


@pytest.mark.parametrize(
    "field, random_matrix", [(F, _random_exact), (S, _random_rational)]
)
def test_mat_mul_matches_entrywise_oracle(field, random_matrix):
    rng = random.Random(20260)
    shapes = [(3, 3, 3), (4, 5, 2), (1, 4, 1), (5, 1, 4), (2, 6, 3)]
    for trial in range(4):
        for m, k, n in shapes:
            A = random_matrix(rng, m, k)
            B = random_matrix(rng, k, n)
            if trial % 2:
                _zero_line(rng, A, B, field)
            assert linalg.mat_mul(A, B, field) == mat_mul_oracle(A, B, field)


@pytest.mark.parametrize("field", [F, S])
def test_mat_mul_degenerate_shapes(field):
    A = [[field.one, field.kappa]]
    assert linalg.mat_mul([[], []], [], field) == [[], []]
    assert linalg.mat_mul([], A, field) == []
    assert linalg.mat_mul([[field.one], [field.zero]], [[]], field) == [[], []]
    assert linalg.mat_mul([[field.zero]], A, field) == [[field.zero] * 2]
    with pytest.raises(ValueError):
        linalg.mat_mul(A, A, field)


def test_mat_mul_specialized_returns_fractions():
    A = [[Fraction(1, 2), Fraction(0)], [Fraction(2, 3), Fraction(5, 7)]]
    got = linalg.mat_mul(A, A, S)
    assert all(type(x) is Fraction for r in got for x in r)
    assert got == mat_mul_oracle(A, A, S)


def test_a_row_vanishing_at_a_point_lowers_the_bound():
    # a ring row is its vector times a nonzero polynomial: at a root of it
    # the row vanishes and the bound drops; no point raises the bound
    # above the rank, and a pole of the vector is no special case
    k = F.kappa
    pt = linalg.CERTIFICATE_POINTS[0]
    root = k - F.from_fraction(pt)
    vanishing = [[root, root * k, F.zero], [F.one, F.zero, k]]
    poles = [[F.one / root, F.one, F.zero], [F.one, k, F.one / (root * root)]]
    for vecs in (vanishing, poles, vanishing + poles):
        rows = ring_rows(vecs)
        rank = rank_of_vectors(vecs, F)
        for p in linalg.CERTIFICATE_POINTS:
            assert linalg.rank_lower_bound(rows, p) <= rank
        assert certified_rank(rows) == rank
    assert rank_of_vectors(vanishing, F) == 2
    assert linalg.rank_lower_bound(ring_rows(vanishing), pt) == 1
    assert linalg.rank_lower_bound(ring_rows(poles), pt) == 2


def test_pack_unpack_round_trip_at_slot_limits():
    for bound in (1, 2, 7, 2**31, 3**50):
        w = linalg._slot_width(bound)
        top = 2 ** (w - 1) - 1
        for p in [
            (top,),
            (-top,),
            (top, -top, 0, top),
            (1, 0, -top),  # negative leading coefficient
            (-top, top, -1),
            (0, 0, -1),
            (),
        ]:
            assert linalg._unpack(linalg._pack(p, w), w) == p
        # a sum of products a·b with |coefficients| <= (Σ‖a‖₁)·max‖b‖∞
        a = [(bound, -bound), (-1, 0, 1)]
        b = [(1, -1), (-1,)]
        w = linalg._slot_width(
            sum(abs(x) for p in a for x in p) * max(abs(x) for p in b for x in p)
        )
        want = P.padd(P.pmul(a[0], b[0]), P.pmul(a[1], b[1]))
        got = linalg._pack(a[0], w) * linalg._pack(b[0], w)
        got += linalg._pack(a[1], w) * linalg._pack(b[1], w)
        assert linalg._unpack(got, w) == want


def test_mat_mul_entries_at_the_slot_bound():
    """Equal positive numerators: the middle kappa-coefficient of every
    entry is inner·max‖a‖₁·max‖b‖∞, the bound the slot width is taken
    from."""
    m = 2**40 - 1
    x = FieldElem((m, m, m))
    inner = 8
    A = [[x] * inner]
    B = [[x] for _ in range(inner)]
    got = linalg.mat_mul(A, B, F)
    assert got == mat_mul_oracle(A, B, F)
    assert got[0][0].num[2] == inner * 3 * m * m


def test_ring_mat_mul_at_its_slot_edge(monkeypatch):
    """Entries m(1 + kappa + ... + kappa^d) and inner dimension p: the
    coefficient of kappa^d in the product is p(d+1)m², the bound the slot
    width is measured from.  It decodes exactly at that width, and a width
    one bit short decodes a wrong value."""
    unpack, widths = linalg._unpack, set()

    def recording(n, w):
        widths.add(w)
        return unpack(n, w)

    monkeypatch.setattr(linalg, "_unpack", recording)
    # k >= 2 keeps w - 1 >= 2: a one-bit slot holds only 0
    for k in (2, 5, 16, 33):
        m = 2**k - 1
        for d in (0, 1, 2, 4):
            for p in (1, 3, 8):
                x = (m,) * (d + 1)
                A, B = [[x] * p], [[x]] * p
                want = P.pscale(P.pmul(x, x), p)
                widths.clear()
                assert linalg.ring_mat_mul(A, B) == [[want]]
                assert want[d] == p * (d + 1) * m * m
                assert widths == {linalg._slot_width(want[d])}
                (w,) = widths
                y = linalg._pack(x, w - 1)
                ((short,),) = linalg._int_mat_mul([[y] * p], [[y]] * p)
                assert unpack(short, w - 1) != want


def test_ring_mat_mul_degenerate_shapes():
    x, y = (3, 0, -1), (2,)
    assert linalg.ring_mat_mul([[], []], []) == [[], []]  # zero inner dimension
    assert linalg.ring_mat_mul([[x, y]], [[], []]) == [[]]  # zero columns
    assert linalg.ring_mat_mul([], [[x]]) == []
    # an all-zero operand on either side
    assert linalg.ring_mat_mul([[(), ()]], [[x, y], [y, x]]) == [[(), ()]]
    assert linalg.ring_mat_mul([[x, y], [y, x]], [[()], [()]]) == [[()], [()]]
    # entries that cancel
    assert linalg.ring_mat_mul([[x, x]], [[y], [P.pneg(y)]]) == [[()]]


def _random_fraction_rows(rng, rows, cols):
    """Seeded Fraction rows: zeros, small entries of either sign, entries
    and denominators above 2^64; then a zero row, a duplicate, a negated
    duplicate and a combination of two rows are mixed in."""
    big = 2**64

    def entry():
        r = rng.random()
        if r < 0.3:
            return Fraction(0)
        if r < 0.45:
            num = rng.randint(-8 * big, 8 * big)
            return Fraction(num, rng.choice((1, 3, big + 1)))
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 35, 1024)))

    vecs = [[entry() for _ in range(cols)] for _ in range(rows)]
    vecs.append([Fraction(0)] * cols)
    vecs.append(list(vecs[0]))
    vecs.append([-x for x in vecs[1]])
    vecs.append([x * Fraction(-3, 7) + y * big for x, y in zip(vecs[1], vecs[2])])
    rng.shuffle(vecs)
    return vecs


# (rows, cols) before the four dependent rows: wide, square and tall
_SHAPES = ((1, 6), (2, 7), (3, 3), (4, 9), (6, 2), (8, 3), (5, 5))


def _combination(coeffs, vecs):
    acc = [Fraction(0)] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        acc = [a + c * x for a, x in zip(acc, v)]
    return acc


def test_specialized_rank_and_kernel_match_the_fraction_oracle():
    rng = random.Random(31337)
    for _ in range(3):
        for rows, cols in _SHAPES:
            vecs = _random_fraction_rows(rng, rows, cols)
            want = fraction_rank_oracle(vecs)
            assert rank_of_vectors(vecs, S) == want
            for pt in linalg.CERTIFICATE_POINTS:
                assert linalg.rank_lower_bound(ring_rows(vecs, S), pt) == want
            rank, kernel = kernel_of_vectors(vecs, S)
            assert rank == want and len(kernel) == len(vecs) - want
            assert all(type(c) is Fraction for a in kernel for c in a)
            for coeffs in kernel:
                assert not any(_combination(coeffs, vecs))
            if kernel:
                assert fraction_rank_oracle(kernel) == len(kernel)


def test_negative_pivots_match_the_fraction_oracle():
    vecs = [
        [Fraction(-3), Fraction(5), Fraction(1, 2)],
        [Fraction(-6), Fraction(-1), Fraction(7)],
        [Fraction(-9), Fraction(4), Fraction(15, 2)],  # sum of the first two
        [Fraction(0), Fraction(-2**70), Fraction(1, 3)],
    ]
    assert rank_of_vectors(vecs, S) == fraction_rank_oracle(vecs) == 3
    rank, kernel = kernel_of_vectors(vecs, S)
    assert rank == 3 and len(kernel) == 1
    a = kernel[0]
    assert a[2] and a == [a[2] * c for c in (-1, -1, 1, 0)]


def test_exact_certificates_match_the_fraction_oracle():
    rng = random.Random(77)
    for rows, cols in ((3, 5), (5, 3), (4, 4)):
        vecs = _random_exact(rng, rows, cols)
        vecs.append([a - b for a, b in zip(vecs[0], vecs[1])])
        for pt in linalg.CERTIFICATE_POINTS:
            want = fraction_rank_oracle(evaluate_vectors_oracle(vecs, pt))
            assert linalg.rank_lower_bound(ring_rows(vecs), pt) == want


def test_specialized_clear_denominators_returns_primitive_ints():
    big = 2**64
    cases = [
        [Fraction(2, 3), Fraction(4, 3)],
        [Fraction(-6, 5), Fraction(0), Fraction(9, 10)],
        [Fraction(big, 3), Fraction(-2 * big, 7)],
        [Fraction(0), Fraction(0)],
        [],
    ]
    for vec in cases:
        den, nums = linalg.cleared(vec, S)
        assert type(den) is int and den > 0
        assert all(type(c) is int for c in nums)
        assert [Fraction(c, den) for c in nums] == vec
        if not any(vec):
            assert not FieldSpan(S).add(vec)
            continue
        row = kept_row(vec, S)
        assert all(type(c) is int for c in row) and gcd(*row) == 1
        # the kept row is a positive multiple of the vector
        j = next(j for j, c in enumerate(row) if c)
        scale = row[j] / vec[j]
        assert scale > 0 and [scale * x for x in vec] == row
    assert kept_row(cases[0], S) == [1, 2]
    assert kept_row(cases[1], S) == [-4, 0, 3]


def test_int_elimination_equals_degree_zero_polynomial_elimination():
    """The int row step gives the row the polynomial step gives on the
    same entries read as degree-0 polynomials."""
    rng = random.Random(4)

    def poly(c):
        return (c,) if c else ()

    for _ in range(200):
        n = rng.randint(1, 6)
        col = rng.randrange(n)
        v = [
            rng.choice((0, rng.randint(-50, 50), rng.randint(-(2**70), 2**70)))
            for _ in range(n)
        ]
        b = [rng.choice((0, rng.randint(-50, 50) * 6)) for _ in range(n)]
        v[col] = v[col] or -12
        b[col] = b[col] or 18
        got = linalg._int_row_eliminate(v, b, col)
        want = linalg._row_eliminate([poly(c) for c in v], [poly(c) for c in b], col)
        assert [poly(c) for c in got] == want
        assert got[col] == 0


def _kappa_gcd(row):
    g = ()
    for p in row:
        if p:
            g = P.pgcd(g, p) if g else P.pgcd(p, p)
    return g


def test_exact_elimination_gives_the_kappa_primitive_part():
    """An exact elimination step is the plain fraction-free step p·v - f·b
    over the gcd of its entries in Z[kappa]: a multiple of it by a
    constant-sign factor, with entry gcd 1 and the column cleared."""
    rng = random.Random(18)

    def poly(deg):
        return P.pnormalize([rng.randint(-9, 9) for _ in range(deg + 1)])

    factors = ((1,), (-6,), (1, 1), (0, 2), (-3, 0, 1), (2, 5, 0, 7))
    for _ in range(150):
        n = rng.randint(1, 5)
        col = rng.randrange(n)
        cv, cb = rng.choice(factors), rng.choice(factors)
        v = [P.pmul(cv, poly(rng.randint(0, 2))) for _ in range(n)]
        b = [P.pmul(cb, poly(rng.randint(0, 2))) for _ in range(n)]
        v[col] = v[col] or P.pmul(cv, (1, -1))
        b[col] = b[col] or cb
        plain = [P.psub(P.pmul(b[col], x), P.pmul(v[col], y)) for x, y in zip(v, b)]
        got = linalg._row_eliminate(v, b, col)
        assert got[col] == ()
        if not any(plain):
            assert not any(got)
            continue
        assert _kappa_gcd(got) == (1,)
        j = next(j for j, p in enumerate(plain) if p)
        scale = P.pdivexact(plain[j], got[j])
        assert scale[-1] > 0
        assert all(P.pmul(scale, g) == p for g, p in zip(got, plain))


def test_exact_span_rows_are_kappa_primitive():
    # a row that enters unreduced loses its kappa-content too
    basis = linalg.SpanBasis(True)
    assert basis.add_row([(0, 2), (0, 0, 4), ()])
    assert basis.rows == [(0, [(1,), (0, 2), ()])]
    assert basis.add_row([(0, 3), (5,), (0, -3)])
    assert not basis.add_row([(0, 0, 6), (0, 0, 0, 12), ()])
    assert all(_kappa_gcd(row) == (1,) for _, row in basis.rows)
    assert basis.dim == 2
