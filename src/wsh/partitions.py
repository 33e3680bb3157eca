"""Partitions, their canonical listing, and Young-diagram content sums.

Partitions are tuples of weakly decreasing positive ints; () is the unique
partition of 0.  The canonical listing of partitions of n is descending
lexicographic, which refines dominance with the most dominant first.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


@lru_cache(maxsize=None)
def partitions_of(n: int):
    """All partitions of n, descending lex (refines dominance, largest first)."""
    if n < 0:
        raise ValueError("negative size")
    out = []

    def gen(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, maxpart), 0, -1):
            prefix.append(part)
            gen(rest - part, part, prefix)
            prefix.pop()

    gen(n, n, [])
    return tuple(out)


def multiplicities(lam):
    out = {}
    for a in lam:
        out[a] = out.get(a, 0) + 1
    return out


def z_factor(lam) -> int:
    """z_lambda = prod_i i^{m_i} m_i! (order of the centralizer in S_n)."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m * factorial(m)
    return z


def boxes(lam):
    """Boxes (x, y) of the Young diagram: y indexes rows, x columns."""
    for y, row in enumerate(lam):
        for x in range(row):
            yield (x, y)


def content_power_sum(lam, l: int, field):
    """Sum over boxes of c(s)^(l-1) with c(s) = kappa*y - x and 0^0 = 1.

    The sign of c is fixed by the relation suite: with this choice the
    quadratic exchange relation among the rank-1 generators holds with the
    cubic kernel (u+1)(u-kappa)(u+kappa-1), matching the shuffle product.
    """
    if l < 1:
        raise ValueError("power index must be >= 1")
    if l == 1:
        return field.from_int(sum(lam))
    kappa = field.kappa
    acc = field.zero
    for x, y in boxes(lam):
        c = kappa * field.from_int(y) - field.from_int(x)
        acc = acc + c ** (l - 1)
    return acc


def dominates(lam, mu) -> bool:
    """True when lam >= mu in dominance order (same size assumed)."""
    s, t = 0, 0
    for i in range(max(len(lam), len(mu))):
        s += lam[i] if i < len(lam) else 0
        t += mu[i] if i < len(mu) else 0
        if s < t:
            return False
    return True


def add_part(lam, r):
    """Partition obtained by inserting a part r (r >= 1)."""
    return tuple(sorted(lam + (r,), reverse=True))
