"""Shuffle algebra with the cubic-twisted product."""

import pytest

from wsh.field import RationalFunctionField
from wsh.multipoly import MultiPoly
from wsh.shuffle import Kernel, ShuffleContext, ShuffleElem, star_product

F = RationalFunctionField()


@pytest.fixture(scope="module")
def sc():
    return ShuffleContext(F)


def z(e, n=2):
    return MultiPoly.variable(e, n, F)


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
    got = sc.gen_product(0, 0)
    d = z(0) - z(1)
    want = d * d * 2 - MultiPoly.constant((k * k - k + 1) * 2, 2, F)
    assert got.poly == want


def test_commutator_closed_form(sc):
    # [z^a, z^b] = 2 kappa (kappa-1) (z1^a z2^b - z1^b z2^a)/(z1 - z2)
    k = F.kappa
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        comm = sc.gen_product(a, b) - sc.gen_product(b, a)
        anti = z(0) ** a * z(1) ** b - z(0) ** b * z(1) ** a
        want = anti.divexact(z(0) - z(1)) * (k * (k - 1) * 2)
        assert comm.poly == want


def test_products_are_symmetric_polynomials(sc):
    for a, b in [(0, 0), (1, 2), (3, 3)]:
        assert sc.gen_product(a, b).poly.is_symmetric()


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


def test_exchange_samples(sc, ctx6):
    res = sc.exchange_samples_check(ctx6)
    assert res.status == "pass"
    assert res.window == (0, 3)
    assert res.detail == "instances [(3, 3), (3, 4), (4, 3), (4, 4)]"
