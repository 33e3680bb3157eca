"""Exact rational-function field and its rational specializations."""

from fractions import Fraction

import pytest

from wsh.field import FieldElem, RationalFunctionField, SpecializedField


@pytest.fixture
def F():
    return RationalFunctionField()


def test_canonical_form_reduces(F):
    # (k^2 - 1)/(k - 1) reduces to k + 1
    x = FieldElem((-1, 0, 1), (-1, 1))
    assert x == F.kappa + 1


def test_denominator_sign_normalized(F):
    # 1/(-k) stores as -1/k: denominator leading coefficient positive
    x = F.one / (-F.kappa)
    assert x.den[-1] > 0
    assert x == -(F.one / F.kappa)


def test_equality_is_structural(F):
    k = F.kappa
    a = (k + 1) * (k - 1)
    b = k * k - 1
    assert a == b and hash(a) == hash(b)


def test_arithmetic_with_ints_and_fractions(F):
    k = F.kappa
    assert k + 2 - 2 == k
    assert 2 * k / 2 == k
    assert k * Fraction(1, 3) * 3 == k
    assert (1 - k) == -(k - 1)


def test_division_and_pow(F):
    k = F.kappa
    x = (k**2 + k) / k
    assert x == k + 1
    assert k**0 == F.one
    assert k**-2 == F.one / (k * k)


def test_zero_division_raises(F):
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_evaluate(F):
    k = F.kappa
    x = (k + 1) / (k - 1)
    assert x.evaluate(Fraction(3)) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        x.evaluate(Fraction(1))


def test_str_forms(F):
    k = F.kappa
    assert str(k) == "k"
    assert str(k * k - k + 1) == "k^2 - k + 1"
    assert str(F.one / k) == "1/k"
    assert str((k + 1) / (k - 1)) == "(k + 1)/(k - 1)"


def test_specialized_field_agrees_with_evaluation(F):
    S = SpecializedField(Fraction(7, 3))
    k = F.kappa
    exact = (k**3 - k + 2) / (k + 5)
    spec = (S.kappa**3 - S.kappa + 2) / (S.kappa + 5)
    assert exact.evaluate(Fraction(7, 3)) == spec


def test_specialized_rejects_zero():
    with pytest.raises(ValueError):
        SpecializedField(Fraction(0))
