"""Dense univariate integer polynomials.

A polynomial is a tuple of ints, ascending by exponent, with no trailing
zeros; the zero polynomial is the empty tuple.  These routines are the hot
kernel of all exact Q(kappa) arithmetic.
"""

from math import gcd

# wshbench records it as wsh.POLY_BACKEND and compares only runs that agree
BACKEND = "pure"


def pnormalize(cs):
    """Strip trailing zeros from a coefficient list; return a tuple."""
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return pnormalize(out)


def psub(a, b):
    if not b:
        return a
    if not a:
        return pneg(b)
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return pnormalize(out)


def pneg(a):
    return tuple(-c for c in a)


def pscale(a, k):
    if k == 0:
        return ()
    if k == 1:
        return a
    return tuple(c * k for c in a)


def pmul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        return pscale(b, a[0])
    if len(b) == 1:
        return pscale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pnormalize(out)


def pdivexact(a, b):
    """Exact quotient a / b; raises ValueError when the division is inexact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        raise ValueError("inexact polynomial division")
    rem = list(a)
    db = len(b) - 1
    lb = b[db]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        if c % lb:
            raise ValueError("inexact polynomial division")
        f = c // lb
        q[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] -= f * b[j]
    if any(rem):
        raise ValueError("inexact polynomial division")
    return pnormalize(q)


def ppseudo_rem(a, b):
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b allowed not)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return a
    rem = list(a)
    lb = b[db]
    for i in range(da, db - 1, -1):
        c = rem[i]
        # scale the whole remainder so the leading term cancels integrally
        if c:
            for j in range(len(rem)):
                rem[j] *= lb
            for j in range(db + 1):
                rem[i - db + j] -= c * b[j]
        rem[i] = 0
    return pnormalize(rem)


def pcontent(a):
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def pprimitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a
    return tuple(c // g for c in a)


def pgcd(a, b):
    """GCD in Z[x], primitive with positive leading coefficient (content kept
    only as gcd of the contents)."""
    if not a:
        return pprimitive(b)
    if not b:
        return pprimitive(a)
    ca, cb = abs(pcontent(a)), abs(pcontent(b))
    g = gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:  # a nonzero constant: the gcd is a content
        return (g,)
    a = pprimitive(a)
    b = pprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = ppseudo_rem(a, b)
        a, b = b, pprimitive(r)
    if g != 1:
        a = pscale(a, g)
    return a
