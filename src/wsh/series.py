"""The exponential of a truncated formal power series.

A series is the list of its coefficients x_0..x_M, exact modulo s^(M+1).
Coefficients may be field elements or multivariate polynomials; they only
need ring operator overloads, equality, and division by a Python int.
"""

from __future__ import annotations


def series_exp(coeffs, one) -> list:
    """The coefficients y_0..y_M of exp(X) for X = sum x_k s^k with zero
    constant term, from Y' = X'Y: y_0 = 1 and k y_k = sum_{j=1..k} j x_j
    y_{k-j}.  No power of X is formed."""
    zero = one - one
    if coeffs[0] != zero:
        raise ValueError("series_exp requires zero constant term")
    dx = [j * x for j, x in enumerate(coeffs)]
    y = [one]
    for k in range(1, len(coeffs)):
        y.append(sum((dx[j] * y[k - j] for j in range(1, k + 1)), zero) / k)
    return y
