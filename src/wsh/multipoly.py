"""Multivariate polynomials over the coefficient field.

Used for shuffle-algebra elements in z_1..z_n and for the commutative ring
of central parameters and degree-zero generators that houses the E-series.
Terms are stored as a dict {exponent tuple: nonzero coefficient}, the
coefficients elements of a field context; the product is termwise.
"""

from __future__ import annotations

from itertools import permutations
from operator import add


class MultiPoly:
    __slots__ = ("nvars", "terms", "field")

    def __init__(self, nvars, terms, field, *, _clean=False):
        if not _clean:
            terms = {e: c for e, c in terms.items() if c != field.zero}
        self.nvars = nvars
        self.terms = terms
        self.field = field

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c, nvars, field):
        z = (0,) * nvars
        if c == field.zero:
            return MultiPoly(nvars, {}, field, _clean=True)
        return MultiPoly(nvars, {z: c}, field, _clean=True)

    @staticmethod
    def variable(i, nvars, field):
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): field.one}, field, _clean=True)

    @staticmethod
    def zero(nvars, field):
        return MultiPoly(nvars, {}, field, _clean=True)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.constant(self._scalar(other), self.nvars, self.field)
        self._check(other)
        out = dict(self.terms)
        zero = self.field.zero
        for e, c in other.terms.items():
            s = out.get(e, zero) + c
            if s == zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.nvars, out, self.field, _clean=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -self._scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(
            self.nvars, {e: -c for e, c in self.terms.items()}, self.field, _clean=True
        )

    def _scalar(self, x):
        if isinstance(x, int):
            return self.field.from_int(x)
        return x

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = self._scalar(other)
            if c == self.field.zero:
                return MultiPoly.zero(self.nvars, self.field)
            return MultiPoly(
                self.nvars, {e: v * c for e, v in self.terms.items()}, self.field
            )
        self._check(other)
        zero = self.field.zero
        out = {}
        get = out.get
        bterms = list(other.terms.items())
        for ea, x in self.terms.items():
            for eb, y in bterms:
                e = tuple(map(add, ea, eb))
                out[e] = get(e, zero) + x * y
        return MultiPoly(self.nvars, out, self.field)

    __rmul__ = __mul__

    def __truediv__(self, x):
        c = self._scalar(x)
        inv = self.field.one / c
        return self * inv

    def __pow__(self, n):
        out = MultiPoly.constant(self.field.one, self.nvars, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self == MultiPoly.constant(self._scalar(other), self.nvars, self.field)

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def permute_vars(self, perm):
        """Apply variable substitution z_i -> z_perm[i]."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, p in enumerate(perm):
                ne[p] += e[i]
            out[tuple(ne)] = c
        return MultiPoly(self.nvars, out, self.field, _clean=True)

    def substitute(self, values):
        """Substitute for variables at once: values is {index: value}, each
        value a field element or a MultiPoly in the same variables.  The
        result keeps the same variable count."""
        one, zero = self.field.one, self.field.zero
        # per exponent pattern of the substituted variables, the terms of the
        # product of the values' powers: field elements multiply as scalars
        factors = {}
        out = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in values)
            if key not in factors:
                scalar, poly = one, MultiPoly.constant(one, self.nvars, self.field)
                for v, k in zip(values.values(), key):
                    if k and isinstance(v, MultiPoly):
                        poly = poly * v**k
                    elif k:
                        scalar = scalar * v**k
                factors[key] = [(fe, scalar * fc) for fe, fc in poly.terms.items()]
            ne = [0 if i in values else k for i, k in enumerate(e)]
            for fe, fc in factors[key]:
                te = tuple(map(add, ne, fe))
                out[te] = out.get(te, zero) + c * fc
        return MultiPoly(self.nvars, out, self.field)

    def is_symmetric(self):
        """Each term moved by an adjacent transposition finds its image
        with the same coefficient."""
        terms, zero = self.terms, self.field.zero
        for e, c in terms.items():
            for i in range(self.nvars - 1):
                if e[i] != e[i + 1]:
                    swapped = e[:i] + (e[i + 1], e[i]) + e[i + 2 :]
                    if terms.get(swapped, zero) != c:
                        return False
        return True

    def symmetrize(self):
        out = MultiPoly.zero(self.nvars, self.field)
        for perm in permutations(range(self.nvars)):
            out = out + self.permute_vars(perm)
        return out

    # -- division ----------------------------------------------------------

    def _lead(self):
        e = max(self.terms)  # lex on exponent tuples
        return e, self.terms[e]

    def divexact(self, divisor):
        """Exact division; raises ValueError when self is not a multiple."""
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        self._check(divisor)
        rem = self
        quot = MultiPoly.zero(self.nvars, self.field)
        de, dc = divisor._lead()
        while rem:
            re, rc = rem._lead()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(q < 0 for q in qe):
                raise ValueError("inexact multivariate division")
            t = MultiPoly(self.nvars, {qe: rc / dc}, self.field, _clean=True)
            quot = quot + t
            rem = rem - t * divisor
        return quot

    # -- printing ----------------------------------------------------------

    def to_str(self):
        if not self.terms:
            return "0"
        names = ["z%d" % (i + 1) for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else "%s^%d" % (names[i], k)
                for i, k in enumerate(e)
                if k
            )
            if mono:
                parts.append("(%s)*%s" % (c, mono))
            else:
                parts.append("(%s)" % c)
        return " + ".join(parts)

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_str()

