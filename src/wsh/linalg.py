"""Exact dense linear algebra over the coefficient field and its rings.

Below the field there is one format: integer kappa-polynomials
(coefficient tuples), or ints when kappa is specialized, over a
denominator.  ``cleared`` and ``decoded`` convert field elements to it and
back; no operator is decoded, and ``decoded`` serves only the D_{0,2} block
of each Jack-basis build (``symfunc.SymmetricFunctions.commuting_blocks``).
Four layers work on it:

* ring matrix products: the product of int matrices (``_int_mat_mul``)
  and, on matrices of integer kappa-polynomials, ``ring_mat_mul``, which
  packs the entries into ints by Kronecker substitution (``_pack``,
  ``_unpack``) and is the one place where an exact matrix product picks
  its slot width (``_slot_width``).  ``ring_product(field)`` picks one of
  the two; ``operators.GradedOp.compose`` is one such product per block,
  and the inclusion of a kernel certificate is one more;
* field-element matrices: a fraction-free product (``mat_mul``), which
  clears denominators once per row and column, multiplies the
  numerators with a ring product and reduces each result entry once, for
  the Jack-basis products;
* one fraction-free echelon form ("SpanBasis") on primitive ring rows,
  Z[kappa]-primitive rows in exact mode: each elimination step divides
  the pivot pair by its gcd and the new row by the gcd of its entries in
  Z[kappa], which keeps the kappa-degrees from doubling with each pivot.
  Rank and membership in the operator filtration go through it;
* rank certificates (``rank_lower_bound``): ring rows taken modulo the
  prime 2^61 - 1 at kappa = a/b and eliminated over that prime field.

The Kronecker packing (``_pack``, ``_unpack``, ``_slot_width``) also
serves ``shuffle.star_product`` and the relation checks at one point
kappa = 2^W (``presentation.Realization.point``, which unpacks nothing).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

from . import _poly as P
from .field import FieldElem

_ONE = (1,)


# ----------------------------------------------------------------------
# dense matrices: rows of field elements, or of ints in the ring kernels
# ----------------------------------------------------------------------


def mat_mul(A, B, field):
    """Exact product A·B, fraction-free.

    Each row of A and each column of B is brought to a common denominator
    once (``cleared``); the numerators are multiplied with
    ``ring_product(field)``, and each result entry is reduced once, from
    its numerator over row_den[i]·col_den[j].
    """
    if A and len(A[0]) != len(B):
        raise ValueError("dimension mismatch")
    if field.mode == "specialized":
        elem, times = Fraction, mul
    else:
        elem, times = FieldElem, P.pmul
    rows = [cleared(row, field) for row in A]
    cols = [cleared(col, field) for col in zip(*B)]
    acc = ring_product(field)(
        [nums for _, nums in rows], list(zip(*[nums for _, nums in cols]))
    )
    zero = field.zero
    return [
        [
            elem(num, times(rden, cden)) if num else zero
            for num, (cden, _) in zip(accrow, cols)
        ]
        for accrow, (rden, _) in zip(acc, rows)
    ]


def ring_product(field):
    """The product of ring matrices given by their rows in the field's
    ring format: ``ring_mat_mul`` on integer kappa-polynomials, and
    ``_int_mat_mul`` on ints when kappa is specialized."""
    return _int_mat_mul if field.mode == "specialized" else ring_mat_mul


def ring_mat_mul(A, B):
    """Product of matrices of integer kappa-polynomials (coefficient
    tuples, zero the empty tuple), given by their rows, by Kronecker
    substitution: every entry is packed into one int at a slot width
    measured from the operands, the int matrices are multiplied
    (``_int_mat_mul``) and each result entry is unpacked.  A coefficient
    of a result entry is a sum of at most inner·(min degree + 1) products
    of a coefficient of A and one of B, which bounds it."""
    ca, la = _extent(A)
    cb, lb = _extent(B)
    w = _slot_width(len(B) * min(la, lb) * ca * cb)
    acc = _int_mat_mul(
        [[_pack(a, w) if a else 0 for a in row] for row in A],
        [[_pack(b, w) if b else 0 for b in row] for row in B],
    )
    return [[_unpack(x, w) if x else () for x in row] for row in acc]


def _extent(M):
    """The largest absolute coefficient and the largest length of the
    entries of a matrix of integer polynomials."""
    entries = list(chain.from_iterable(M))
    coeffs = list(chain.from_iterable(entries))
    if not coeffs:
        return 0, 0
    return max(max(coeffs), -min(coeffs)), max(map(len, entries))


def _int_mat_mul(A, B):
    """Product of int matrices given by their rows."""
    nb = len(B[0]) if B else 0
    out = []
    for anums in A:
        acc = [0] * nb
        for a, bk in zip(anums, B):
            if a:
                for j, b in enumerate(bk):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def cleared(vec, field):
    """(den, nums): the least common denominator of a vector of field
    elements and the ring numerators over it, integer kappa-polynomials
    over a polynomial den in exact mode and ints over an int den when
    kappa is specialized."""
    if field.mode == "specialized":
        return _common_int_denominator(vec)
    return _common_denominator(vec)


def decoded(block, den, field):
    """A ring matrix over the positive int den as field elements."""
    zero = field.zero
    if field.mode == "specialized":
        return [[Fraction(x, den) if x else zero for x in row] for row in block]
    den = (den,)
    return [[FieldElem(x, den) if x else zero for x in row] for row in block]


def _common_denominator(vec):
    """(den, nums): the lcm of the denominators of a FieldElem vector and
    the integer numerators over it."""
    den = _ONE
    for x in vec:
        d = x.den
        if d != _ONE and d != den:
            den = P.pmul(den, P.pdivexact(d, P.pgcd(den, d)))
    return den, [
        x.num if x.den == den else P.pmul(x.num, P.pdivexact(den, x.den))
        for x in vec
    ]


def _common_int_denominator(vec):
    """(den, nums): the lcm of the denominators of a Fraction vector and
    the int numerators over it."""
    den = 1
    for x in vec:
        d = x.denominator
        if d != 1 and den % d:
            den = den * d // gcd(den, d)
    return den, [x.numerator * (den // x.denominator) for x in vec]


# Kronecker substitution: an integer polynomial (coefficient tuple) is
# packed into one int by evaluating it at 2^w, so a product of polynomials
# is one int product.  Slots are signed: unpacking is exact as long as
# every coefficient of the packed value lies strictly inside ±2^(w-1).


def _slot_width(bound):
    """The narrowest slot width for values whose coefficients are at most
    ``bound`` in absolute value, e.g. (Σ‖a‖₁)·max‖b‖∞ for a sum of
    products a·b: bound < 2^(w-1)."""
    return bound.bit_length() + 1


def _pack(p, w):
    """The integer polynomial p evaluated at 2^w."""
    n = 0
    for c in reversed(p):
        n = (n << w) + c
    return n


def _unpack(n, w):
    """The coefficient tuple (no trailing zeros) of the packed value n."""
    out = []
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    while n:
        c = n & mask
        if c >= half:
            c -= 1 << w
        out.append(c)
        n = (n - c) >> w
    return tuple(out)


# ----------------------------------------------------------------------
# fraction-free echelon machinery
# ----------------------------------------------------------------------


def _strip_content(row):
    g = 0
    for p in row:
        for c in p:
            g = gcd(g, c)
            if g == 1:
                return row
    if g > 1:
        row = [tuple(c // g for c in p) for p in row]
    return row


def _strip_int_content(row):
    g = gcd(*row)
    return [c // g for c in row] if g > 1 else row


def _row_eliminate(v, b, col):
    """Fraction-free elimination of column col from v using row b.  The
    pivot pair is divided by its gcd first, and the result by the gcd of
    its entries in Z[kappa], so the row it gives is Z[kappa]-primitive and
    its kappa-degrees stay bounded (Bareiss, Math. Comp. 22 (1968))."""
    f, p = v[col], b[col]
    g = P.pgcd(f, p)
    if g != _ONE:
        f, p = P.pdivexact(f, g), P.pdivexact(p, g)
    return _strip_kappa_content(
        [P.psub(P.pmul(p, x), P.pmul(f, y)) for x, y in zip(v, b)]
    )


def _strip_kappa_content(row):
    """A row of integer kappa-polynomials over the gcd of its entries in
    Z[kappa], taken with a positive leading coefficient."""
    g = None
    for p in row:
        if not p:
            continue
        g = (p if p[-1] > 0 else P.pneg(p)) if g is None else P.pgcd(g, p)
        if len(g) == 1:
            # the gcd is an integer from here on
            return _strip_content(row) if g[0] > 1 else row
    if g is None or g == _ONE:
        return row
    return [P.pdivexact(p, g) if p else p for p in row]


def _int_row_eliminate(v, b, col):
    """_row_eliminate on int rows; the pivot pair is divided by its gcd
    first, which leaves the stripped row unchanged."""
    g = gcd(v[col], b[col])
    f = v[col] // g
    p = b[col] // g
    return _strip_int_content([p * x - f * y for x, y in zip(v, b)])


class SpanBasis:
    """Incremental row-echelon basis, fraction-free: it takes ring rows,
    integer kappa-polynomial rows when ``exact`` and int rows when kappa
    is specialized, and keeps each as its Z[kappa]-primitive (or
    primitive int) part."""

    def __init__(self, exact):
        self.rows = []  # (pivot_col, row), sorted by pivot_col
        if exact:
            self._eliminate, self._strip = _row_eliminate, _strip_kappa_content
        else:
            self._eliminate, self._strip = _int_row_eliminate, _strip_int_content

    @property
    def dim(self):
        return len(self.rows)

    def _reduce_row(self, row):
        for piv, b in self.rows:
            if row[piv]:
                row = self._eliminate(row, b, piv)
        return row

    def add_row(self, row) -> bool:
        row = self._reduce_row(row)
        piv = next((j for j, p in enumerate(row) if p), None)
        if piv is None:
            return False
        self.rows.append((piv, self._strip(row)))
        self.rows.sort(key=lambda t: t[0])
        return True

    def contains_row(self, row) -> bool:
        return not any(self._reduce_row(row))


# ----------------------------------------------------------------------
# rank certificates over F_p
# ----------------------------------------------------------------------

# Fixed evaluation points for rank certificates: a nonzero minor at any of
# these implies a nonzero minor over Q(kappa), so ranks computed here are
# rigorous lower bounds for the exact rank (and kernel dimensions computed
# here are rigorous upper bounds for the exact kernel dimension).
CERTIFICATE_POINTS = (
    Fraction(9973, 577),
    Fraction(104729, 313),
    Fraction(-7919, 1201),
)

# the Mersenne prime 2^61 - 1, the modulus of every rank certificate
PRIME = (1 << 61) - 1


def rank_lower_bound(rows, point=None) -> int:
    """Rank of ring rows over F_p, p = ``PRIME``, at kappa = a/b: a lower
    bound on their rank over Q(kappa).  The entries, integer
    kappa-polynomials (coefficient tuples) or ints, go to F_p by the ring
    map kappa -> a·b^-1 (mod p), so a nonzero minor mod p is one over
    Q(kappa); the bound drops at a root of a minor or where p divides it
    (the modular rank method; Dumas, Giorgi and Pernet, ISSAC 2004)."""
    point = Fraction(CERTIFICATE_POINTS[0] if point is None else point)
    k = point.numerator * pow(point.denominator, -1, PRIME) % PRIME
    basis = []  # (pivot col, row from it on with a unit pivot)
    for row in rows:
        row = [_mod_at(x, k) for x in row]
        for piv, tail in basis:
            f = row[piv] % PRIME
            if f:
                # reduced mod p once, after the last step
                row[piv:] = [x - f * y for x, y in zip(row[piv:], tail)]
        row = [x % PRIME for x in row]
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], -1, PRIME)
            basis.append((piv, [x * inv % PRIME for x in row[piv:]]))
    return len(basis)


def _mod_at(x, k):
    """A ring entry (int or integer kappa-polynomial) at kappa = k in F_p."""
    if type(x) is not tuple:
        return x % PRIME
    acc = 0
    for c in reversed(x):
        acc = (acc * k + c) % PRIME
    return acc

