"""Integer kappa-polynomial kernel."""

import inspect
import random
from math import gcd

import pytest

import wsh
from wsh import _poly
from wsh._poly import _pure


# one kernel, reached through the names the library imports; the id is
# its wsh.POLY_BACKEND label
@pytest.mark.parametrize("P", [_poly], ids=[_poly.BACKEND])
class TestBackend:
    def test_normalize_strips_trailing_zeros(self, P):
        assert P.pnormalize((1, 2, 0, 0)) == (1, 2)
        assert P.pnormalize((0, 0)) == ()

    def test_add_sub(self, P):
        a, b = (1, 2, 3), (4, -2)
        assert P.padd(a, b) == (5, 0, 3)
        assert P.psub(P.padd(a, b), b) == a

    def test_mul(self, P):
        # (1 + x)(1 - x) = 1 - x^2
        assert P.pmul((1, 1), (1, -1)) == (1, 0, -1)
        assert P.pmul((), (1, 2)) == ()

    def test_divexact(self, P):
        q = P.pdivexact((1, 0, -1), (1, 1))
        assert q == (1, -1)

    def test_content_primitive(self, P):
        assert P.pcontent((6, -9, 12)) == 3
        assert P.pprimitive((6, -9, 12)) == (2, -3, 4)

    def test_gcd(self, P):
        a = P.pmul((1, 1), (2, 0, 1))
        b = P.pmul((1, -1), (2, 0, 1))
        g = P.pgcd(a, b)
        assert g == (2, 0, 1)

    def test_gcd_of_zero(self, P):
        assert P.pgcd((), (3, 6)) == (1, 2)
        assert P.pgcd((4, 8), ()) == (1, 2)


def test_kernel_layout_is_pinned():
    # wshbench's setup probe reads POLY_BACKEND, and its tracer counts
    # calls through wsh._poly while calls inside wsh._poly._pure stay direct
    assert wsh.POLY_BACKEND == "pure"
    kernel = {
        n for n, f in vars(_pure).items()
        if inspect.isfunction(f) and f.__module__ == _pure.__name__
    }
    exported = {n for n, f in vars(_poly).items() if inspect.isfunction(f)}
    assert exported == kernel
    for name in kernel:
        assert getattr(_poly, name) is getattr(_pure, name)


# -- seeded properties on random Z[x] inputs ---------------------------------

EDGE = [(), (1,), (-1,), (6,), (-(2**70),), (0, 1), (3, 0, -(2**65)), (-1, 1, -2)]
POINTS = range(-7, 8)  # more points than any product below has coefficients


def random_poly(rng, max_len=7):
    """Up to max_len coefficients of 3 to 130 bits, either sign."""
    bits = rng.choice((3, 20, 70, 130))
    n = rng.randint(0, max_len)
    return _poly.pnormalize([rng.randint(-(2**bits), 2**bits) for _ in range(n)])


def samples(seed, count=120):
    rng = random.Random(seed)
    pairs = [(a, b) for a in EDGE for b in EDGE]
    pairs += [(random_poly(rng), random_poly(rng)) for _ in range(count)]
    return rng, pairs


def ev(p, x):
    return sum(c * x**i for i, c in enumerate(p))


def normalized(p):
    return isinstance(p, tuple) and (not p or p[-1] != 0)


def test_ring_operations_agree_with_evaluation():
    _, pairs = samples(1)
    for a, b in pairs:
        for op, f in ((_poly.padd, int.__add__), (_poly.psub, int.__sub__),
                      (_poly.pmul, int.__mul__)):
            c = op(a, b)
            assert normalized(c)
            assert all(ev(c, x) == f(ev(a, x), ev(b, x)) for x in POINTS)


def test_exact_division_inverts_multiplication():
    rng, pairs = samples(2)
    for a, b in pairs:
        if not b:
            with pytest.raises(ZeroDivisionError):
                _poly.pdivexact(a, b)
            continue
        assert _poly.pdivexact(_poly.pmul(a, b), b) == a
        # a nonzero remainder of lower degree makes the quotient inexact
        if len(b) > 1:
            r = random_poly(rng, len(b) - 1) or (1,)
        elif abs(b[0]) > 1:
            r = (rng.randrange(1, abs(b[0])),)
        else:
            continue
        with pytest.raises(ValueError):
            _poly.pdivexact(_poly.padd(_poly.pmul(a, b), r), b)


def test_pseudo_remainder():
    # lc(b)^k a - r is a multiple of b in Z[x] for some k <= deg a - deg b + 1
    _, pairs = samples(3)
    for a, b in pairs:
        if not b:
            continue
        r = _poly.ppseudo_rem(a, b)
        assert normalized(r) and len(r) < len(b)
        ks = range(max(0, len(a) - len(b) + 1) + 1)
        assert any(
            multiple_of(_poly.psub(_poly.pscale(a, b[-1] ** k), r), b) for k in ks
        )


def multiple_of(a, b):
    try:
        _poly.pdivexact(a, b)
    except ValueError:
        return False
    return True


def test_gcd_properties():
    rng, pairs = samples(4)
    # a common factor makes most gcds nontrivial
    pairs += [
        (_poly.pmul(a, c), _poly.pmul(b, c))
        for (a, b), c in zip(pairs[-60:], (random_poly(rng, 4) for _ in range(60)))
    ]
    for a, b in pairs:
        if not a and not b:
            continue
        g = _poly.pgcd(a, b)
        assert normalized(g) and g[-1] > 0
        ca, cb = _poly.pcontent(a), _poly.pcontent(b)
        assert _poly.pcontent(g) == (gcd(ca, cb) if a and b else 1)
        fa, fb = _poly.pdivexact(a, g), _poly.pdivexact(b, g)
        assert _poly.pgcd(fa, fb) == (1,)
