"""Independent sympy-based implementations used as cross-checks.

These deliberately share no code with the package under test: the count goes
through sympy's polynomial arithmetic over ZZ on the same intersection product,
with gamma in its multinomial form (which the package no longer uses), and the
transvectant goes through sympy's differentiation.  Keep it that way so the
dual-route checks stay meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import ZZ, Poly, Rational, diff, expand, symbols

_z1, _z2, _z3 = symbols("z1 z2 z3")
_x, _y = symbols("x y")


def sympy_count(m: int, n: int, a: int, b: int) -> int:
    """Degree of the f^a + g^b locus via sympy polynomial arithmetic over ZZ."""
    if a * m != b * n:
        raise ValueError("am != bn")
    if math.gcd(m, n) not in (1, 2):
        raise ValueError("gcd(m, n) must be 1 or 2")
    if m > n:
        m, n, a, b = n, m, b, a

    def poly(expr):
        return Poly(expr, _z1, _z2, _z3, domain=ZZ)

    alpha1 = poly((1 - a) * _z1 + (1 - b) * _z2 - _z3)
    alpha2 = poly(-a * _z1**2 - a * (1 - b) * _z1 * _z2 + a * _z1 * _z3)

    gamma = poly(0)
    for j in range((m + n) // 2 + 1):
        i = m + n - 2 * j
        coeff = (-1) ** (i + j) * math.factorial(i + j) // (math.factorial(i) * math.factorial(j))
        gamma += coeff * alpha1**i * alpha2**j

    beta = poly(0)
    for i in range(m + n - 1):
        beta += poly(_z1 + _z2) ** i * poly(_z3) ** (m + n - 2 - i)
    if math.gcd(m, n) == 2:
        if m % 2 != 0:
            raise ValueError("m must be even when gcd(m, n) = 2")
        beta -= 2 ** (m - 2) * poly(
            (m // 2) ** 2 * _z1 ** (m - 2) * _z2**n
            + (n // 2) * (m // 2) * _z1 ** (m - 1) * _z2 ** (n - 1)
            + (n // 2) ** 2 * _z1**m * _z2 ** (n - 2)
        )

    total = gamma * beta
    return int(total.coeff_monomial(_z1**m * _z2**n * _z3 ** (m + n - 2)))


def sympy_transvectant(f_coeffs, g_coeffs) -> list[Fraction]:
    """First transvectant via sympy differentiation; takes and returns plain
    x-descending coefficient lists of exact rationals."""

    def build(coeffs):
        e = len(coeffs) - 1
        return sum(
            Rational(c.numerator, c.denominator) * _x ** (e - i) * _y**i
            for i, c in enumerate(Fraction(v) for v in coeffs)
        )

    f = build(f_coeffs)
    g = build(g_coeffs)
    t = expand(diff(f, _x) * diff(g, _y) - diff(f, _y) * diff(g, _x))
    deg = (len(f_coeffs) - 1) + (len(g_coeffs) - 1) - 2
    if deg == 0:
        return [Fraction(str(t))]
    poly = Poly(t, _x, _y)
    out = []
    for k in range(deg + 1):
        c = poly.coeff_monomial(_x ** (deg - k) * _y**k)
        out.append(Fraction(str(c)))
    return out
