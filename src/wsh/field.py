"""The coefficient field F = Q(kappa) and its rational specializations.

Elements of Q(kappa) are reduced ratios of integer-coefficient polynomials
in kappa.  Canonical form: gcd(num, den) = 1 (polynomial and content), and
the denominator has positive leading coefficient, so equality is structural.

A "field context" object bundles the distinguished element kappa with
element constructors.  Two contexts are provided: the exact field Q(kappa)
and a specialization kappa -> rational, whose elements are plain Fractions.
Scalars, free-algebra coefficients, series, the Jack basis and the
coefficients of every ``MultiPoly`` (multiplied termwise) are the
context's elements.  Operators are not: a ``GradedOp`` holds integer
kappa-polynomials (coefficient tuples), or ints when kappa is specialized,
over an int denominator, and meets field elements only as scalars and
as Jack eigenvalues.  The conversions between field elements and that
ring format are ``linalg.cleared`` and ``linalg.decoded``; the
fraction-free kernels (the ``linalg`` matrix products and echelon, and
the packed terms of ``shuffle.star_product``) otherwise branch on
``field.mode`` only to pick a ring operation (Kronecker-packed Z[kappa]
or plain ints).
"""

from __future__ import annotations

from fractions import Fraction

from . import _poly as P

_ONE = (1,)


def _reduce(num, den):
    if not den:
        raise ZeroDivisionError("division by zero in Q(kappa)")
    if not num:
        return (), _ONE
    if den == _ONE:
        return num, den
    g = P.pgcd(num, den)
    if len(g) > 1 or g[0] != 1:
        num = P.pdivexact(num, g)
        den = P.pdivexact(den, g)
    if den[-1] < 0:
        num = P.pneg(num)
        den = P.pneg(den)
    return num, den


class FieldElem:
    """An element of Q(kappa) in reduced, sign-normalized form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE, *, _reduced=False):
        if not _reduced:
            num, den = _reduce(tuple(num), tuple(den))
        self.num = num
        self.den = den

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_int(n: int) -> "FieldElem":
        return FieldElem((n,) if n else (), _ONE, _reduced=True)

    @staticmethod
    def from_fraction(q: Fraction) -> "FieldElem":
        n, d = q.numerator, q.denominator
        return FieldElem((n,) if n else (), (d,), _reduced=True)

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            return other
        if isinstance(other, int):
            return FieldElem.from_int(other)
        if isinstance(other, Fraction):
            return FieldElem.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return FieldElem(P.padd(self.num, other.num), self.den)
        num = P.padd(P.pmul(self.num, other.den), P.pmul(other.num, self.den))
        return FieldElem(num, P.pmul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return FieldElem(P.psub(self.num, other.num), self.den)
        num = P.psub(P.pmul(self.num, other.den), P.pmul(other.num, self.den))
        return FieldElem(num, P.pmul(self.den, other.den))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return FieldElem(P.pneg(self.num), self.den, _reduced=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == _ONE and other.den == _ONE:
            return FieldElem(P.pmul(self.num, other.num), _ONE, _reduced=True)
        # cross-reduce before multiplying to keep intermediates small
        a, d2 = _reduce(self.num, other.den)
        b, d1 = _reduce(other.num, self.den)
        return FieldElem(P.pmul(a, b), P.pmul(d1, d2), _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(kappa)")
        return self.__mul__(FieldElem(other.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return FieldElem.from_int(1) / self ** (-n)
        out = FieldElem.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- misc --------------------------------------------------------------

    def evaluate(self, x: Fraction) -> Fraction:
        """Evaluate at kappa = x; raises ZeroDivisionError on a pole."""
        num = _eval_poly(self.num, x)
        den = _eval_poly(self.den, x)
        return num / den

    def __str__(self):
        ns = format_poly(self.num)
        if self.den == _ONE:
            return ns
        ds = format_poly(self.den)
        if " " in ns or "*" in ns:
            ns = "(%s)" % ns
        if " " in ds or "*" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "FieldElem(%s)" % self


def _eval_poly(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def format_poly(p, var="k"):
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if not c:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            v = var if e == 1 else "%s^%d" % (var, e)
            term = v if abs(c) == 1 else "%d*%s" % (abs(c), v)
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    s0, t0 = parts[0]
    out = ("-" if s0 == "-" else "") + t0
    for sign, term in parts[1:]:
        out += " %s %s" % (sign, term)
    return out


class RationalFunctionField:
    """Exact mode: elements are FieldElem over Q(kappa)."""

    mode = "exact"

    def __init__(self):
        self.zero = FieldElem.from_int(0)
        self.one = FieldElem.from_int(1)
        self.kappa = FieldElem((0, 1), _ONE, _reduced=True)

    def from_int(self, n):
        return FieldElem.from_int(n)

    def from_fraction(self, q):
        return FieldElem.from_fraction(q)


class SpecializedField:
    """Specialized mode: kappa evaluated at a fixed rational, elements are
    Fractions.  Advisory for passes; definitive for failures."""

    mode = "specialized"

    def __init__(self, kappa: Fraction):
        if kappa == 0:
            raise ValueError("kappa specialization must be nonzero")
        self.kappa = Fraction(kappa)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)
