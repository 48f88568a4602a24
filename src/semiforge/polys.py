"""Univariate polynomials over Q, as coefficient tuples with the constant
term first. Only the little arithmetic the torsion test needs."""

from __future__ import annotations

from fractions import Fraction

Poly = tuple  # tuple[Fraction, ...], lowest degree first, no trailing zeros

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    while len(rem) - 1 >= dq and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return trim(quo), trim(rem)


def mod(p: Poly, q: Poly) -> Poly:
    return divmod_poly(p, q)[1]


def monic(p: Poly) -> Poly:
    if not p:
        return ZERO
    lead = p[-1]
    return tuple(c / lead for c in p)


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while q:
        p, q = q, mod(p, q)
    return monic(p)


def derivative(p: Poly) -> Poly:
    return trim(i * c for i, c in enumerate(p) if i >= 1)


def pow_x_mod(exponent: int, q: Poly) -> Poly:
    """x**exponent reduced modulo q, by binary exponentiation."""
    if degree(q) < 1:
        raise ValueError("modulus must have positive degree")
    result = mod(ONE, q)
    base = mod(X, q)
    e = exponent
    while e:
        if e & 1:
            result = mod(mul(result, base), q)
        base = mod(mul(base, base), q)
        e >>= 1
    return result
