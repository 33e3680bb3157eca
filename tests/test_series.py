"""The exponential of a truncated power series, against the Taylor sum of
the oracle series; the oracle's own ring operations."""

from fractions import Fraction

import pytest
from conftest import TruncSeries, series_exp_oracle

from wsh.field import RationalFunctionField
from wsh.multipoly import MultiPoly
from wsh.series import series_exp

ZERO = Fraction(0)
ONE = Fraction(1)


def series_log(x: TruncSeries, one) -> TruncSeries:
    """log of a series with constant term 1: the inverse oracle for
    ``series_exp``."""
    if x.coeffs[0] != one:
        raise ValueError("series_log requires constant term 1")
    u = x - TruncSeries.constant(one, x.order, x.zero)
    result = TruncSeries.constant(x.zero, x.order, x.zero)
    power = TruncSeries.constant(one, x.order, x.zero)
    for k in range(1, x.order + 1):
        power = power * u
        term = power._wrap([c / k for c in power.coeffs])
        result = result + term if k % 2 else result - term
    return result


def geometric(order):
    return TruncSeries([ONE] * (order + 1), order, ZERO)


def coefficient_lists(order):
    """(coefficients x_0..x_order with x_0 = 0, one) over Fraction, over
    Q(kappa), and over Q(kappa)[a, b]: linear forms as in the central
    series."""
    F = RationalFunctionField()
    k = F.kappa
    fractions = [ZERO] + [
        Fraction((-1) ** i * (i + 2), i * i + 1) for i in range(1, order + 1)
    ]
    elems = [F.zero] + [(k - i) ** i / (k + i) for i in range(1, order + 1)]
    a, b = (MultiPoly.variable(i, 2, F) for i in range(2))
    polys = [MultiPoly.zero(2, F)] + [
        a * (k**i) + b * F.from_fraction(Fraction(1, i)) for i in range(1, order + 1)
    ]
    return [(fractions, ONE), (elems, F.one), (polys, MultiPoly.constant(F.one, 2, F))]


def test_add_mul_shift():
    s = TruncSeries([1, 2, 3], 4, 0)
    t = TruncSeries([0, 1], 4, 0)
    assert (s + t).coeffs == [1, 3, 3, 0, 0]
    assert (s * t).coeffs == [0, 1, 2, 3, 0]
    assert s.shift(2).coeffs == [0, 0, 1, 2, 3]
    assert (s * 2).coeffs == [2, 4, 6, 0, 0]


def test_truncation_drops_high_order():
    s = TruncSeries([0, 1], 3, 0)
    assert (s * s * s * s).coeffs == [0, 0, 0, 0]


@pytest.mark.parametrize("kind", range(3), ids=["fraction", "field", "multipoly"])
def test_recurrence_matches_the_taylor_oracle(kind):
    # the recurrence against the sum of the powers x^k / k!, order 1..12
    for order in range(1, 13):
        coeffs, one = coefficient_lists(order)[kind]
        zero = one - one
        want = series_exp_oracle(TruncSeries(coeffs, order, zero), one)
        assert series_exp(coeffs, one) == want.coeffs


def test_exp_log_roundtrip():
    x = TruncSeries([ZERO, ONE, Fraction(1, 2), Fraction(-2)], 6, ZERO)
    e = series_exp(x.coeffs, ONE)
    assert e[0] == ONE
    assert series_log(TruncSeries(e, 6, ZERO), ONE) == x


def test_exp_of_log_of_geometric():
    g = geometric(5)
    assert series_exp(series_log(g, ONE).coeffs, ONE) == g.coeffs


def test_exp_addition_law():
    a = TruncSeries([ZERO, ONE], 5, ZERO)
    b = TruncSeries([ZERO, ZERO, Fraction(3, 7)], 5, ZERO)
    ea, eb = (TruncSeries(series_exp(x.coeffs, ONE), 5, ZERO) for x in (a, b))
    assert series_exp((a + b).coeffs, ONE) == (ea * eb).coeffs


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp([ONE, ZERO, ZERO, ZERO], ONE)
    with pytest.raises(ValueError):
        series_exp_oracle(TruncSeries([ONE], 3, ZERO), ONE)
    with pytest.raises(ValueError):
        series_log(TruncSeries([ZERO, ONE], 3, ZERO), ONE)
