"""Symmetric functions over F as power-sum coordinate vectors, one degree
at a time: the Jack matrix, the deformed pairing, and the m<->p change of
basis.

A homogeneous symmetric function of degree n is its vector of power-sum
coordinates, indexed by partitions_of(n); operators are matrices on these
vectors.  Column j of the Jack matrix at degree n is J_lambda for the
j-th partition lambda of n.  It is produced by Gram-Schmidt against
<p_lam, p_mu> = delta * z_lam * alpha^len (alpha = 1/kappa) down the
dominance order on the monomial basis, then scaled so the coefficient of
m_(1^n) equals n!.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import linalg
from .partitions import (
    add_part,
    multiplicities,
    partitions_of,
    z_factor,
)


@lru_cache(maxsize=None)
def _p_to_m_int(n: int):
    """Integer matrix: column j = p_{lambda_j} expanded in the m-basis."""
    parts = partitions_of(n)
    index = {lam: i for i, lam in enumerate(parts)}
    cols = []
    for lam in parts:
        expansion = {(): 1}
        for r in lam:
            nxt = {}
            for mu, c in expansion.items():
                for v in set(mu) | {0}:
                    if v == 0:
                        nu = add_part(mu, r)
                    else:
                        lst = list(mu)
                        lst.remove(v)
                        nu = add_part(tuple(lst), v + r)
                    mult = multiplicities(nu)[v + r]
                    nxt[nu] = nxt.get(nu, 0) + c * mult
            expansion = nxt
        col = [0] * len(parts)
        for mu, c in expansion.items():
            col[index[mu]] = c
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(len(parts))) for i in range(len(parts)))


class SymmetricFunctions:
    """The m<->p matrices, the pairing and the Jack matrix, cached per
    degree for one field context."""

    def __init__(self, field):
        self.field = field
        self._p2m = {}
        self._m2p = {}
        self._jack = {}
        self._jack_inv = {}
        self._gram = {}

    # -- transition matrices ---------------------------------------------

    def p_to_m(self, n):
        if n not in self._p2m:
            fi = self.field.from_int
            self._p2m[n] = [[fi(x) for x in row] for row in _p_to_m_int(n)]
        return self._p2m[n]

    def m_to_p(self, n):
        if n not in self._m2p:
            self._m2p[n] = linalg.mat_inv(self.p_to_m(n), self.field)
        return self._m2p[n]

    def gram_diag(self, n):
        """Diagonal of the Jack pairing in the p-basis at degree n."""
        if n not in self._gram:
            alpha = self.field.one / self.field.kappa
            self._gram[n] = [
                self.field.from_int(z_factor(lam)) * alpha ** len(lam)
                for lam in partitions_of(n)
            ]
        return self._gram[n]

    def _pairing(self, n, u, v):
        g = self.gram_diag(n)
        zero = self.field.zero
        acc = zero
        for gi, a, b in zip(g, u, v):
            if a != zero and b != zero:
                acc = acc + gi * a * b
        return acc

    # -- Jack basis --------------------------------------------------------

    def jack_matrix(self, n):
        """Columns: J_lambda in p-coordinates, aligned with partitions_of(n)."""
        if n not in self._jack:
            self._jack[n] = self._compute_jack(n)
        return self._jack[n]

    def jack_matrix_inv(self, n):
        """C^-1 = diag(1/<J_lam,J_lam>) C^T diag(gram_diag(n)), from the
        orthogonality of the Jack basis for the pairing."""
        if n not in self._jack_inv:
            g = self.gram_diag(n)
            inv = []
            for col in zip(*self.jack_matrix(n)):
                norm = self._pairing(n, col, col)
                inv.append([x * gi / norm for x, gi in zip(col, g)])
            self._jack_inv[n] = inv
        return self._jack_inv[n]

    def _compute_jack(self, n):
        parts = partitions_of(n)
        m2p = self.m_to_p(n)
        p2m = self.p_to_m(n)
        k = len(parts)
        vecs = [None] * k
        norms = [None] * k
        # ascending dominance: orthogonalize starting from the lex-least
        for idx in range(k - 1, -1, -1):
            v = [m2p[r][idx] for r in range(k)]
            for jdx in range(k - 1, idx, -1):
                w = vecs[jdx]
                coeff = self._pairing(n, v, w) / norms[jdx]
                if coeff != self.field.zero:
                    v = [a - coeff * b for a, b in zip(v, w)]
            norm = self._pairing(n, v, v)
            if norm == self.field.zero:
                raise ArithmeticError(
                    "orthogonalization pivot vanished; in specialized mode "
                    "rerun with a new kappa value"
                )
            vecs[idx] = v
            norms[idx] = norm
        # integral-form normalization: [m_(1^n)] J = n!; the coefficient
        # of v is its product with the last row of p2m ((1^n) is lex-least)
        nf = self.field.from_int(factorial(n))
        last = p2m[k - 1]
        cols = []
        for v in vecs:
            lead = sum((a * x for a, x in zip(last, v)), self.field.zero)
            cols.append([x * (nf / lead) for x in v])
        return [[cols[j][i] for j in range(k)] for i in range(k)]
