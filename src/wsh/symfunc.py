"""The ring of symmetric functions over F: monomial, power-sum, and
integral-form Jack bases with exact change of basis.

Power-sum coordinates are the canonical storage everywhere; the Jack basis
is produced by Gram-Schmidt against <p_lam, p_mu> = delta * z_lam * alpha^len
(alpha = 1/kappa) down the dominance order on the monomial basis, then
scaled so the coefficient of m_(1^n) equals n!.
"""

from __future__ import annotations

from fractions import Fraction
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


class SymFunc:
    """A finite F-linear combination of basis elements indexed by partitions."""

    __slots__ = ("basis", "comps", "field")

    def __init__(self, basis, comps, field, *, _clean=False):
        if basis not in ("m", "p", "j"):
            raise ValueError("unknown basis %r" % basis)
        if not _clean:
            comps = {lam: c for lam, c in comps.items() if c != field.zero}
        self.basis = basis
        self.comps = comps
        self.field = field

    @staticmethod
    def zero(field, basis="p"):
        return SymFunc(basis, {}, field, _clean=True)

    @staticmethod
    def one(field, basis="p"):
        return SymFunc(basis, {(): field.one}, field, _clean=True)

    @staticmethod
    def power_sum(lam, field):
        return SymFunc("p", {tuple(lam): field.one}, field, _clean=True)

    def degrees(self):
        return sorted({sum(lam) for lam in self.comps})

    def homogeneous(self, n):
        return {lam: c for lam, c in self.comps.items() if sum(lam) == n}

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("mixed bases; convert first")
        out = dict(self.comps)
        zero = self.field.zero
        for lam, c in other.comps.items():
            s = out.get(lam, zero) + c
            if s == zero:
                out.pop(lam, None)
            else:
                out[lam] = s
        return SymFunc(self.basis, out, self.field, _clean=True)

    def __sub__(self, other):
        return self + other.scale(self.field.from_int(-1))

    def scale(self, c):
        if c == self.field.zero:
            return SymFunc.zero(self.field, self.basis)
        return SymFunc(
            self.basis, {lam: x * c for lam, x in self.comps.items()}, self.field
        )

    def __eq__(self, other):
        return (
            isinstance(other, SymFunc)
            and self.basis == other.basis
            and self.comps == other.comps
        )

    def __bool__(self):
        return bool(self.comps)

    def __repr__(self):
        if not self.comps:
            return "0"
        return " + ".join(
            "(%s)*%s%s" % (self.field.to_str(c), self.basis, list(lam))
            for lam, c in sorted(self.comps.items(), reverse=True)
        )


class SymmetricFunctions:
    """Basis conversions, the Jack basis, and the Jack inner product,
    cached per degree for one field context."""

    def __init__(self, field):
        self.field = field
        self._p2m = {}
        self._m2p = {}
        self._jack = {}
        self._jack_inv = {}
        self._gram = {}

    # -- transition matrices ---------------------------------------------

    def parts(self, n):
        return partitions_of(n)

    def index(self, n):
        return {lam: i for i, lam in enumerate(partitions_of(n))}

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
        """Columns: J_lambda in p-coordinates, aligned with parts(n)."""
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
        # integral-form normalization: [m_(1^n)] J = n!
        nf = self.field.from_int(factorial(n))
        cols = []
        for idx in range(k):
            v = vecs[idx]
            mcoords = linalg.mat_vec(p2m, v, self.field)
            lead = mcoords[k - 1]  # (1^n) is lex-least, hence last
            cols.append([x * (nf / lead) for x in v])
        return [[cols[j][i] for j in range(k)] for i in range(k)]

    def jack_basis(self, n):
        """List of (partition, J_lambda as a p-basis SymFunc)."""
        parts = partitions_of(n)
        C = self.jack_matrix(n)
        out = []
        for j, lam in enumerate(parts):
            comps = {
                mu: C[i][j] for i, mu in enumerate(parts) if C[i][j] != self.field.zero
            }
            out.append((lam, SymFunc("p", comps, self.field, _clean=True)))
        return out

    # -- conversions and pairing ------------------------------------------

    def _coords(self, f, n, basis):
        idx = self.index(n)
        v = [self.field.zero] * len(idx)
        for lam, c in f.items():
            v[idx[lam]] = c
        return v

    def convert(self, f: SymFunc, target: str) -> SymFunc:
        if f.basis == target:
            return f
        out = {}
        for n in f.degrees():
            v = self._coords(f.homogeneous(n), n, f.basis)
            if f.basis == "m":
                v = linalg.mat_vec(self.m_to_p(n), v, self.field)
            elif f.basis == "j":
                v = linalg.mat_vec(self.jack_matrix(n), v, self.field)
            # now in p-coordinates
            if target == "m":
                v = linalg.mat_vec(self.p_to_m(n), v, self.field)
            elif target == "j":
                v = linalg.mat_vec(self.jack_matrix_inv(n), v, self.field)
            for lam, c in zip(partitions_of(n), v):
                if c != self.field.zero:
                    out[lam] = c
        return SymFunc(target, out, self.field, _clean=True)

    def multiply(self, f: SymFunc, g: SymFunc) -> SymFunc:
        fp = self.convert(f, "p")
        gp = self.convert(g, "p")
        zero = self.field.zero
        out = {}
        for lam, a in fp.comps.items():
            for mu, b in gp.comps.items():
                nu = tuple(sorted(lam + mu, reverse=True))
                s = out.get(nu, zero) + a * b
                if s == zero:
                    out.pop(nu, None)
                else:
                    out[nu] = s
        return SymFunc("p", out, self.field, _clean=True)

    def inner_product(self, f: SymFunc, g: SymFunc):
        fp = self.convert(f, "p")
        gp = self.convert(g, "p")
        alpha = self.field.one / self.field.kappa
        acc = self.field.zero
        for lam, a in fp.comps.items():
            b = gp.comps.get(lam)
            if b is not None:
                acc = acc + a * b * self.field.from_int(z_factor(lam)) * alpha ** len(lam)
        return acc
