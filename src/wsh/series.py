"""Truncated formal power series over a commutative coefficient ring.

Coefficients may be field elements or multivariate polynomials; they only
need ring operator overloads, equality, and division by a Python int.
Everything is exact modulo s^(order+1).
"""

from __future__ import annotations


class TruncSeries:
    """Power series sum c[i] s^i, exact modulo s^(order+1)."""

    __slots__ = ("order", "coeffs", "zero")

    def __init__(self, coeffs, order, zero):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [zero] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order
        self.zero = zero

    @staticmethod
    def constant(c, order, zero):
        return TruncSeries([c], order, zero)

    def _wrap(self, coeffs):
        return TruncSeries(coeffs, self.order, self.zero)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._wrap([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._wrap([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._wrap([-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            # ring scalar
            return self._wrap([a * other for a in self.coeffs])
        out = [self.zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == self.zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b == self.zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return self._wrap(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def shift(self, k):
        """Multiply by s^k."""
        if k == 0:
            return self
        return self._wrap([self.zero] * k + self.coeffs)

    def __repr__(self):
        return "TruncSeries(%r)" % (self.coeffs,)


def series_exp(x: TruncSeries, one) -> TruncSeries:
    """exp of a series with zero constant term."""
    if x.coeffs[0] != x.zero:
        raise ValueError("series_exp requires zero constant term")
    result = TruncSeries.constant(one, x.order, x.zero)
    term = result
    for k in range(1, x.order + 1):
        tx = term * x
        term = tx._wrap([c / k for c in tx.coeffs])
        result = result + term
    return result
