"""Truncated power series: ring operations, exp, log."""

from fractions import Fraction

import pytest

from wsh.series import TruncSeries, series_exp

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


def test_exp_log_roundtrip():
    x = TruncSeries([ZERO, ONE, Fraction(1, 2), Fraction(-2)], 6, ZERO)
    e = series_exp(x, ONE)
    assert e.coeffs[0] == ONE
    assert series_log(e, ONE) == x


def test_exp_of_log_of_geometric():
    g = geometric(5)
    assert series_exp(series_log(g, ONE), ONE) == g


def test_exp_addition_law():
    a = TruncSeries([ZERO, ONE], 5, ZERO)
    b = TruncSeries([ZERO, ZERO, Fraction(3, 7)], 5, ZERO)
    assert series_exp(a + b, ONE) == series_exp(a, ONE) * series_exp(b, ONE)


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(TruncSeries([ONE], 3, ZERO), ONE)
    with pytest.raises(ValueError):
        series_log(TruncSeries([ZERO, ONE], 3, ZERO), ONE)
