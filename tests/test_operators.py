"""Graded operators on the polynomial representation."""

from fractions import Fraction

import pytest
from conftest import (
    FiltrationOracle,
    block,
    column,
    from_field,
    gram_diag,
    jack_matrix_oracle,
    mat_inv_oracle,
    mat_mul_oracle,
    sekiguchi_conjugation_oracle,
)

from wsh import linalg, symfunc
from wsh.checks import zero_check
from wsh.field import FieldElem, SpecializedField
from wsh.operators import OpContext, WindowError
from wsh.partitions import add_part, content_power_sum, partitions_of
from wsh.report import _spectrum_check
from wsh.symfunc import SymmetricFunctions


def test_multiplication_acts_on_power_sums(ctx6):
    # p_lam -> p_{lam + (l)} on every partition of the window
    F = ctx6.field
    for l in (1, 3):
        op = ctx6.multiplication(l)
        for n in range(ctx6.N - l + 1):
            for lam in partitions_of(n):
                assert column(op, lam) == {add_part(lam, l): F.one}


def test_sekiguchi_diagonal_on_jack(ctx6):
    F = ctx6.field
    for l in (1, 2, 3, 4):
        op = ctx6.sekiguchi(l)
        for n in range(ctx6.N + 1):
            eigs = ctx6.jack_eigenvalues(op, n)
            for lam, e in zip(partitions_of(n), eigs):
                assert e == content_power_sum(lam, l, F)


@pytest.mark.parametrize(
    "kappa", [None, Fraction(9, 4), Fraction(7, 3), Fraction(9973, 577)]
)
def test_sekiguchi_matches_entrywise_conjugation(field, kappa):
    # the Lax-moment blocks of D_{0,l}, l <= 9, built one index at a time,
    # against C diag C^-1 with the entrywise product and Gauss-Jordan
    # inverse; N = 6 exact, N = 8 specialized
    F = field if kappa is None else SpecializedField(kappa)
    ctx = OpContext(F, 6 if kappa is None else 8)
    ops = [ctx.sekiguchi(l) for l in range(1, 10)]
    for n in range(ctx.N + 1):
        C = ctx.sym.jack_matrix(n)
        Cinv = mat_inv_oracle(C, F)
        for l, op in enumerate(ops, 1):
            eigs = [content_power_sum(lam, l, F) for lam in partitions_of(n)]
            mid = [[c * e for c, e in zip(row, eigs)] for row in C]
            assert block(op, n) == mat_mul_oracle(mid, Cinv, F)


@pytest.mark.parametrize("kappa", [None, Fraction(7, 3)])
def test_closed_form_sekiguchi_equals_jack_conjugation(field, kappa):
    # n I and the Laplace-Beltrami block against C diag C^-1, C the
    # Gram-Schmidt Jack matrix and C^-1 its Gauss-Jordan inverse
    F = field if kappa is None else SpecializedField(kappa)
    ctx = OpContext(F, 6)
    for n in range(ctx.N + 1):
        C = jack_matrix_oracle(ctx.sym, n)
        Cinv = mat_inv_oracle(C, F)
        for l in (1, 2):
            eigs = [content_power_sum(lam, l, F) for lam in partitions_of(n)]
            mid = [[c * e for c, e in zip(row, eigs)] for row in C]
            assert block(ctx.sekiguchi(l), n) == mat_mul_oracle(mid, Cinv, F)


def test_sekiguchi_builds_without_a_jack_basis(field, ctx6, monkeypatch):
    # no Jack basis enters the operator build: with the Jack build made to
    # raise, every D_{0,l}, l <= 9, still builds; building l = 9 after
    # l = 1..3 keeps the cached ones and gives the blocks of a fresh context
    def no_jack(self, n):
        raise AssertionError("Jack basis built at degree %d" % n)

    monkeypatch.setattr(SymmetricFunctions, "_compute_jack", no_jack)
    ctx = OpContext(field, 6)
    low = [ctx.sekiguchi(l) for l in (1, 2, 3)]
    ctx.sekiguchi(9)
    assert all(ctx.sekiguchi(l) is op for l, op in zip((1, 2, 3), low))
    for l in range(1, 10):
        assert ctx.sekiguchi(l).blocks == ctx6.sekiguchi(l).blocks


@pytest.mark.parametrize(
    "l, wrong",
    [(l, [(2, 1)]) for l in (1, 2, 3, 4)]
    # the first one found: degrees ascending, then partitions_of order
    + [(2, [(4,), (2, 1), (1, 1, 1)])],
)
def test_spectrum_check_names_a_wrong_eigenvalue(field, l, wrong):
    # D_{0,l} rebuilt with the eigenvalue on each partition in wrong off by
    # the lcm denominator of C·diag(off)·C^-1, which makes the perturbation,
    # and so the operator, integral over Z[kappa]
    ctx = OpContext(field, 4)
    op = ctx.sekiguchi(l)
    blocks = {n: block(op, n) for n in op.blocks}
    for n in sorted({sum(lam) for lam in wrong}):
        off = [field.one if lam in wrong else field.zero for lam in partitions_of(n)]
        shift = sekiguchi_conjugation_oracle(ctx.sym, l, n, off)
        den, _ = linalg.cleared([x for row in shift for x in row], field)
        eigs = [
            content_power_sum(lam, l, field) + (FieldElem(den) if lam in wrong else 0)
            for lam in partitions_of(n)
        ]
        blocks[n] = sekiguchi_conjugation_oracle(ctx.sym, l, n, eigs)
    ctx._sek[l] = from_field(0, blocks, field)
    outcomes = {o.id: o for o in (_spectrum_check(ctx, m) for m in range(1, 5))}
    assert sorted(outcomes) == ["spectrum(%d)" % m for m in (1, 2, 3, 4)]
    bad = outcomes.pop("spectrum(%d)" % l)
    assert bad.status == "fail"
    assert bad.detail == "wrong eigenvalue on (2, 1)"
    assert all(o.status == "pass" for o in outcomes.values())


def test_sekiguchi_one_comes_from_the_lax_rows(field, monkeypatch):
    # D_{0,1} = n·I follows from the moment a_2 = kappa n; doubling the
    # lowering entries k m_k of the Lax operator doubles a_2 and so D_{0,1},
    # and spectrum(1) fails
    rows = symfunc._lax_rows

    def doubled(n):
        return tuple(
            tuple((col, c0 if c1 else 2 * c0, c1) for col, c0, c1 in row)
            for row in rows(n)
        )

    monkeypatch.setattr(symfunc, "_lax_rows", doubled)
    monkeypatch.setattr(symfunc, "_moment_bound", symfunc._moment_bound.__wrapped__)
    for F in (field, SpecializedField(Fraction(7, 3))):
        ctx = OpContext(F, 4)
        op = ctx.sekiguchi(1)
        for n in range(ctx.N + 1):
            d = len(partitions_of(n))
            assert block(op, n) == [
                [F.from_int(2 * n) if i == j else F.zero for j in range(d)]
                for i in range(d)
            ]
        assert _spectrum_check(ctx, 1).status == "fail"


def test_sekiguchi_extends_its_moments_not_its_cached_operators(field):
    # D_{0,l} asked for one index at a time extends the Lax moments kept
    # per degree; an overwritten cached operator feeds no higher index
    for F in (field, SpecializedField(Fraction(7, 3))):
        ctx, ref = OpContext(F, 5), OpContext(F, 5)
        for l in (1, 2):
            ctx.sekiguchi(l)
        ctx._sek[2] = ctx.sekiguchi(1).scale(F.from_int(3))
        ref.sekiguchi(9)
        for l in range(3, 10):
            assert ctx.sekiguchi(l).blocks == ref.sekiguchi(l).blocks


@pytest.mark.parametrize("kappa", [None, Fraction(7, 3)])
def test_filtration_matches_the_all_candidates_oracle(field, kappa):
    # each piece extends the one below it by the candidates with new
    # factors only; it spans what all the candidates span, and the
    # leading-term differences lie in the same pieces
    F = field if kappa is None else SpecializedField(kappa)
    ctx = OpContext(F, 6)
    oracle = FiltrationOracle(ctx)
    for r in (1, 2, 3):
        for d in (0, 1, 2):
            span = ctx.filtration_span(r, d)
            basis, ops = oracle.span(r, d)
            assert span.dim == basis.dim
            assert all(span.contains(op) for op in ops)
            if d:
                coeff = F.from_int(r) ** (d - 1)
                lead = ctx.dprime(r, d) - ctx.drd(r, d).scale(coeff)
                below = oracle.span(r, d - 1)[0]
                assert ctx.filtration_span(r, d - 1).contains(
                    lead
                ) == below.contains_row(lead.flatten())


def test_sekiguchi_degree_two_eigenvalues(ctx6):
    # order-2 operator: eigenvalue -1 on the row (2), kappa on the column (11)
    F = ctx6.field
    eigs = ctx6.jack_eigenvalues(ctx6.sekiguchi(2), 2)
    assert dict(zip(partitions_of(2), eigs)) == {
        (2,): -F.one,
        (1, 1): F.kappa,
    }


def test_bracket_of_first_two_raising_generators(ctx6):
    # [d1(1), d1(0)] adds a 2-row: it equals the rank-2 generator at order 0
    lhs = ctx6.d1(1).commutator(ctx6.d1(0))
    assert lhs == ctx6.drd(2, 0)
    F = ctx6.field
    # D_{2,0} is minus multiplication by p_2 in this content convention
    assert column(lhs, ()) == {(2,): -F.one}


def test_defining_relations_small_window(ctx6):
    assert ctx6.check_relation("def1", 2, 3).status == "pass"
    assert ctx6.check_relation("def2", 2, 1).status == "pass"
    assert ctx6.check_relation("def3").status == "pass"
    assert ctx6.check_relation("def4").status == "pass"
    assert ctx6.check_relation("rank2", 0, 1).status == "pass"
    assert ctx6.check_relation("recursion", 3).status == "pass"
    assert ctx6.check_relation("kl_identity", 1, 2).status == "pass"
    assert ctx6.check_relation("exchange", 0, 0).status == "pass"


def test_failing_relation_reports_block(ctx6):
    # a deliberately false identity localizes its first failing degree
    op = ctx6.d1(1) - ctx6.d1(0)
    out = zero_check("bogus", op)
    assert out.status == "fail"
    assert out.failing_block is not None
    assert out.as_dict()["first_failing_block"] == out.failing_block


def test_window_too_small_is_skipped(field):
    ctx = OpContext(field, N=2)
    out = ctx.check_relation("kl_identity", 2, 2)
    assert out.status == "skipped"


def test_composition_window_shrinks(ctx6):
    a = ctx6.d1(0)
    b = ctx6.lowering(0)
    down_up = b.compose(a)  # rank 0, defined from degree 0
    up_down = a.compose(b)  # rank 0, defined from degree 1 only
    assert 0 in down_up.blocks
    assert 0 not in up_down.blocks and 1 in up_down.blocks


def test_lowering_is_pairing_adjoint(ctx6):
    # <D_{-1,k} f, g> = kappa^{-1} ... fixed by construction: check the
    # matrix identity against the diagonal Gram form directly on degree 3
    F = ctx6.field
    sym = ctx6.sym
    k = 2
    up = ctx6.d1(k)
    down = ctx6.lowering(k)
    n = 3
    parts_lo = partitions_of(n - 1)
    parts_hi = partitions_of(n)
    g_lo = gram_diag(sym, n - 1)
    g_hi = gram_diag(sym, n)
    A = block(up, n - 1)  # maps degree 2 -> 3
    B = block(down, n)  # maps degree 3 -> 2
    for i in range(len(parts_lo)):
        for j in range(len(parts_hi)):
            # <up e_i, e_j> * kappa = <e_i, down e_j> * (with diagonal Gram)
            assert F.kappa * A[j][i] * g_hi[j] == B[i][j] * g_lo[i]


def test_missing_block_raises(ctx6):
    # a degree outside the window is a window error (a skipped check), not
    # a lookup failure
    with pytest.raises(WindowError, match="degree 0 outside operator window"):
        block(ctx6.d1(0).compose(ctx6.lowering(0)), 0)


def test_ad_nested(ctx6):
    # [D_{1,1}, [D_{1,1}, D_{1,0}]] = [D_{1,1}, D_{2,0}] = 2 D_{3,0} ... via
    # the recursion (l-1) D_{l,0} = [D_{1,1}, D_{l-1,0}]
    two = ctx6.field.from_int(2)
    d11 = ctx6.d1(1)
    lhs = d11.commutator(d11.commutator(ctx6.drd(1, 0)))
    assert lhs == ctx6.drd(3, 0).scale(two)


def test_rank_one_generators_are_the_derived_generators(field):
    # D_{1,k} is built once: d1(k) is the drd(1, k) object itself
    ctx = OpContext(field, 6)
    for k in range(4):
        assert ctx.d1(k) is ctx.drd(1, k)


def test_leading_term_and_graded_dims(ctx6):
    for r, d in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
        assert ctx6.leading_term_check(r, d).status == "pass"
        assert ctx6.graded_dimension_check(r, d).status == "pass"
