"""Acceptance suite at the reference configuration.

Everything here runs in exact Q(kappa) arithmetic on the degree-8
truncation window with index bounds K = L = 5 and series order M = 6.
Each test asserts exact zero (or exact equality) -- no tolerances.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from wsh.operators import OpContext
from wsh.partitions import content_power_sum, partitions_of
from wsh.presentation import PresentationContext
from wsh.shc import ShcContext
from wsh.shuffle import ShuffleContext

N = 8
K = L = 5
M = 6


@pytest.fixture(scope="module")
def shuffle8(field):
    return ShuffleContext(field)


@pytest.fixture(scope="module")
def shc8(ctx8):
    return ShcContext(ctx8)


# -- defining relations ------------------------------------------------------


def test_commuting_family_relations(ctx8):
    for l in range(1, L + 1):
        for k in range(l + 1, L + 1):
            assert ctx8.check_relation("def1", l, k).status == "pass"


def test_cross_relations(ctx8):
    for l in range(1, L + 1):
        for k in range(0, K):
            out = ctx8.check_relation("def2", l, k)
            assert out.status == "pass", out.id


def test_quadratic_relation(ctx8):
    assert ctx8.check_relation("def3").status == "pass"


def test_cubic_relation(ctx8):
    assert ctx8.check_relation("def4").status == "pass"


def test_rank2_relation_family(ctx8):
    for k in range(3):
        for l in range(3):
            out = ctx8.check_relation("rank2", k, l)
            assert out.status == "pass", out.id


# -- spectrum ----------------------------------------------------------------


def test_commuting_family_spectrum(ctx8):
    field = ctx8.field
    for l in range(1, 5):
        op = ctx8.sekiguchi(l)
        for n in range(N + 1):
            eigs = ctx8.jack_eigenvalues(op, n)
            for lam, e in zip(partitions_of(n), eigs):
                assert e == content_power_sum(lam, l, field)


# -- derived-generator identities -------------------------------------------


def test_rank_recursion(ctx8):
    for l in range(2, L + 1):
        assert ctx8.check_relation("recursion", l).status == "pass"


def test_kl_bracket_identity(ctx8):
    for k in range(1, L):
        for l in range(1, L):
            if k + l > L:
                continue
            out = ctx8.check_relation("kl_identity", k, l)
            assert out.status in ("pass", "skipped"), out.id
            if k + l <= L - 1:
                assert out.status == "pass", out.id


# -- order filtration --------------------------------------------------------


def test_leading_term_law(ctx8):
    for r in range(1, 4):
        for d in range(3):
            out = ctx8.leading_term_check(r, d)
            assert out.status == "pass", out.id


def test_graded_dimensions_free(ctx8):
    for r in range(1, 4):
        for d in range(3):
            out = ctx8.graded_dimension_check(r, d)
            assert out.status == "pass", "%s: %s" % (out.id, out.detail)
    assert (
        ctx8.filtration_span(2, 0).dim - ctx8.filtration_span(2, -1).dim == 2
    )


# -- shuffle realization -----------------------------------------------------


def test_shuffle_associativity(shuffle8):
    assert shuffle8.associativity_check(trials=20).status == "pass"


def test_shuffle_square_and_kernel_reflection(shuffle8):
    assert shuffle8.square_of_unit_degree_check().status == "pass"
    assert shuffle8.kernel_expansion_check().status == "pass"
    ker = shuffle8.kernel
    # the exchange cubic is the reflection -h(-u) of the product twist
    assert ker.k_coeffs() == [
        c if i % 2 else -c for i, c in enumerate(ker.h_coeffs())
    ]


def test_shuffle_rank2_kernel_matches_operators(shuffle8, ctx8):
    outcomes = shuffle8.rank2_kernel_compare(4, ctx8)
    assert outcomes
    for out in outcomes:
        assert out.status == "pass", "%s: %s" % (out.id, out.detail)
    ids = [o.id for o in outcomes]
    assert any("divisib" in i for i in ids)


# -- negative half and central series ----------------------------------------


def test_negative_half_cross_relations(shc8):
    outs = shc8.negative_cross_checks(L, K)
    assert outs
    for out in outs:
        assert out.status in ("pass", "skipped"), out.id
    assert sum(o.status == "pass" for o in outs) >= 10


def test_mixed_commutators_split_independent_and_diagonal(shc8):
    for out in shc8.split_independence_checks(4):
        assert out.status == "pass", out.id


def test_negative_cubic_and_quadratic_variants(shc8):
    outs = {o.id: o for o in shc8.negative_relation_checks()}
    assert outs["neg_cubic"].status == "pass"
    # exactly one sign reading of the negative quadratic vanishes
    assert outs["neg_quadratic_variant"].status == "pass"
    assert outs["neg_adjoint_of_quadratic"].status == "pass"


def test_central_character_fit_unique_convention(shc8):
    outs = {o.id: o for o in shc8.fit_arbitration_check(4)}
    uniq = outs["fock_fit_unique_convention(hmax=4)"]
    assert uniq.status == "pass", uniq.detail
    surviving = [i for i in outs if i.startswith("fock_fit(")]
    assert len(surviving) == 1
    assert outs[surviving[0]].status == "pass"


def test_e0_equals_c0_symbolically(shc8):
    assert shc8.e0_symbolic_check().status == "pass"


# -- rank-2 injectivity of the presentation ----------------------------------


def test_presentation_rank2_injectivity(ctx8):
    pres = PresentationContext(ctx8, L=L, K=K)
    for out in pres.rank2_kernel_match():
        assert out.status == "pass", "%s: %s" % (out.id, out.detail)


# -- determinism -------------------------------------------------------------


def test_verify_all_byte_identical():
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "wsh.cli", "verify", "all"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            cmd, capture_output=True, env=env, timeout=540
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[0]).hexdigest() == (
        "135670ee5c29ba90b1d0996e4021b2b7843917f96433080e29a13f637b644661"
    )
    doc = json.loads(runs[0])
    assert doc["status"] == "pass"
    assert doc["config"] == {
        "N": N,
        "kmax": K,
        "lmax": L,
        "series_order": M,
        "jobs": 1,
        "mode": "exact",
    }
    assert Counter(c["status"] for c in doc["checks"]) == {"pass": 175}
    ids = "\n".join(sorted(c["id"] for c in doc["checks"]))
    assert hashlib.sha256(ids.encode()).hexdigest() == (
        "b42a650c33ccc8be534a072e8b9dc543c8708e0f8a4d2c748f43cb13e81a321f"
    )
