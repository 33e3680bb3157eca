"""Central series, negative half, and the central-character fit."""

from fractions import Fraction

import pytest
from conftest import (
    central_series_oracle,
    jack_conjugate_oracle,
    jack_eigenvalues_oracle,
    omega_preset_oracle,
    phi_series_oracle,
    varphi_series_oracle,
)

from wsh._poly import padd
from wsh.field import RationalFunctionField, SpecializedField
from wsh.operators import GradedOp, OpContext
from wsh.partitions import partitions_of
from wsh.shc import (
    GCONVENTIONS,
    CentralRing,
    ShcContext,
    central_series,
    omega_preset,
    phi_series,
    varphi_series,
)


@pytest.fixture(scope="module")
def shc6(ctx6):
    return ShcContext(ctx6)


def test_e0_is_c0_in_both_conventions(field):
    for conv in GCONVENTIONS:
        eser = central_series(field, 3, conv)
        assert eser.coeffs[0] == eser.ring.c(0)


def test_conventions_agree_low_and_diverge_later(field):
    a = central_series(field, 5, GCONVENTIONS[0])
    b = central_series(field, 5, GCONVENTIONS[1])
    assert a.coeffs[0] == b.coeffs[0]
    assert any(a.coeffs[l] != b.coeffs[l] for l in range(1, 5))


def test_coefficient_dict_is_deterministic(field):
    eser = central_series(field, 3, "power")
    d1 = eser.coefficient_dict(2)
    d2 = central_series(field, 3, "power").coefficient_dict(2)
    assert list(d1) == list(d2) and d1 == d2


def test_omega_preset_eliminates_central_parameters(field):
    for conv in GCONVENTIONS:
        eser = central_series(field, 4, conv)
        ring = eser.ring
        for poly in omega_preset(eser):
            for e in poly.terms:
                assert not any(
                    e[ring.c_index(i)] for i in range(ring.M + 1)
                )


@pytest.mark.parametrize("kappa", [None, Fraction(7, 3)])
def test_kernel_series_match_the_oracles(field, kappa):
    # phi_l and varphi_l from the one G_l builder against the separate
    # log and inverse-power builders, l < 6, both conventions
    F = field if kappa is None else SpecializedField(kappa)
    ring = CentralRing(F, 8)
    for conv in GCONVENTIONS:
        for l in range(6):
            assert phi_series(l, conv, 8, ring) == phi_series_oracle(l, conv, 8, ring)
            assert varphi_series(l, conv, 8, ring) == varphi_series_oracle(
                l, conv, 8, ring
            )


@pytest.mark.parametrize("kappa", [None, Fraction(7, 3)])
def test_central_series_and_omega_preset_match_the_oracles(field, kappa):
    # one exponential of the whole exponent against the product of the
    # exponentials of its two halves, and the omega preset by substitution
    # against the exponent loop, M <= 6
    F = field if kappa is None else SpecializedField(kappa)
    for M in range(1, 7):
        for conv in GCONVENTIONS:
            eser = central_series(F, M, conv)
            assert eser.coeffs == central_series_oracle(F, M, conv)
            assert omega_preset(eser) == omega_preset_oracle(eser)


def test_negative_cross(shc6):
    outs = shc6.negative_cross_checks(3, 3)
    assert outs and all(o.status in ("pass", "skipped") for o in outs)
    assert any(o.status == "pass" for o in outs)


def test_split_independence_and_diagonality(shc6):
    outs = shc6.split_independence_checks(2)
    assert len(outs) == 6
    assert all(o.status == "pass" for o in outs)


def test_jack_eigenvalues_match_the_conjugation_oracle(shc6):
    # one product B·C against C^-1·B·C: the same eigenvalues on the
    # diagonal blocks of e_operator and sekiguchi(2), and None exactly on
    # the columns where C^-1·B·C has an off-diagonal entry; the power-sum
    # length operator has such columns from n = 2
    ctx = shc6.opctx
    F = ctx.field
    blocks = {}
    for n in range(ctx.N + 1):
        ps = partitions_of(n)
        blocks[n] = [
            [F.from_int(len(lam)) if i == j else F.zero for j in range(len(ps))]
            for i, lam in enumerate(ps)
        ]
    lengths = GradedOp.from_field(0, blocks, F)
    ops = [shc6.e_operator(0, h) for h in range(5)] + [ctx.sekiguchi(2), lengths]
    for op in ops:
        for n in sorted(op.blocks):
            B = jack_conjugate_oracle(ctx, op, n)
            eigs = ctx.jack_eigenvalues(op, n)
            assert len(eigs) == len(B)
            for j, eig in enumerate(eigs):
                if any(row[j] != F.zero for i, row in enumerate(B) if i != j):
                    assert eig is None
                else:
                    assert eig == B[j][j]
            if op is lengths and n >= 2:
                assert None in eigs


@pytest.mark.parametrize("kappa", [None, Fraction(7, 3)], ids=["exact", "7/3"])
def test_fraction_free_jack_eigenvalues_match_the_decoded_oracle(kappa):
    # the same lists, Nones included, as the decoded product B·C with field
    # divisions: D_{0,l} for l = 1..4, the fock operators [D_{-1,k},
    # D_{1,h-k}] at N <= 6, and a block with one entry moved off the
    # diagonal of D_{0,2}
    F = RationalFunctionField() if kappa is None else SpecializedField(kappa)
    ctx = OpContext(F, 6)
    shc = ShcContext(ctx)
    ops = [ctx.sekiguchi(l) for l in range(1, 5)]
    ops += [shc.e_operator(k, h - k) for h in range(5) for k in range(h + 1)]
    blocks = dict(ctx.sekiguchi(2).blocks)
    blocks[4] = [list(row) for row in blocks[4]]
    blocks[4][0][2] = padd(blocks[4][0][2], (1,)) if kappa is None else blocks[4][0][2] + 1
    perturbed = GradedOp(0, blocks, F, ctx.sekiguchi(2).den)
    for op in ops + [perturbed]:
        for n in sorted(op.blocks):
            assert ctx.jack_eigenvalues(op, n) == jack_eigenvalues_oracle(ctx, op, n)
    assert None in ctx.jack_eigenvalues(perturbed, 4)
    assert None not in ctx.jack_eigenvalues(perturbed, 3)


def test_negative_relations(shc6):
    outs = {o.id: o for o in shc6.negative_relation_checks()}
    assert outs["neg_cubic"].status == "pass"
    assert outs["neg_quadratic_variant"].status == "pass"
    assert "minus squared-term sign" in outs["neg_quadratic_variant"].detail
    assert outs["neg_adjoint_of_quadratic"].status == "pass"


def test_fit_low_order_both_conventions(shc6):
    # through E_3 the conventions are reparametrizations of each other:
    # both must admit the same trivial central character
    for conv in GCONVENTIONS:
        outcome, fitted = shc6.fit_central_charge(2, conv)
        assert outcome.status == "pass"
        f = shc6.field
        assert fitted == {0: f.one, 1: f.zero, 2: f.zero}


def test_fit_arbitration_selects_one_convention(shc6):
    outs = shc6.fit_arbitration_check(4)
    by_id = {o.id: o for o in outs}
    uniq = by_id["fock_fit_unique_convention(hmax=4)"]
    assert uniq.status == "pass"
    assert "surviving convention: power" in uniq.detail
    fit = by_id["fock_fit(power,hmax=4)"]
    assert fit.status == "pass"
    assert "c_4 = 0" in fit.detail


def test_builtin_symbolic_checks(shc6):
    assert shc6.e0_symbolic_check().status == "pass"
    assert shc6.preset_check(hmax=2).status == "pass"


def test_jack_eigenvalues_are_read_once_per_operator_and_degree(ctx6, monkeypatch):
    # the split-independence checks and both fits read the eigenvalues of
    # e_operator(0, h) at degree n from one call per (h, n)
    calls = []
    original = type(ctx6).jack_eigenvalues

    def counted(self, op, n):
        calls.append((id(op), n))
        return original(self, op, n)

    monkeypatch.setattr(type(ctx6), "jack_eigenvalues", counted)
    shc = ShcContext(ctx6)
    shc.split_independence_checks(4)
    outs = shc.fit_arbitration_check(4)
    assert outs[-1].status == "pass"
    assert len(calls) == len(set(calls)) > 0
    assert {n for _, n in calls} == set(range(ctx6.N))
