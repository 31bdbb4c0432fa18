"""The count by localisation at the torus-fixed points, a route that shares
with the package only beta's formula and gcd2_excess.

The torus t.(x, y) = (t x, t^-1 y) acts on binary forms, so on
P^m x P^n x P^(N-2), N = m + n.  Its fixed points are the (m+1)(n+1)(N-1)
monomial triples (x^i y^(m-i), x^j y^(n-j), x^k y^(N-2-k)), each isolated.
At the point (i, j, k):

- z1, z2 and z3 restrict to m-2i, n-2j and N-2-2k;
- the tangent space of P^c at its point i has the weights 2(i'-i), i' != i,
  and e, their product over the three factors, is the point's Euler class;
- gamma's Chern roots restrict to the pair (w1, w2) that
  tvcount.counting.fixed_point_weights gives, so gamma = h_N(-x1, -x2)
  restricts to sum_(s=0..N) (-w1)^s (-w2)^(N-s);
- beta restricts to sum_(s=0..N-2) (z1+z2)^s z3^(N-2-s), less, at gcd 2,
  gcd2_excess(m, n) times (z1^(m-2) z2^n, z1^(m-1) z2^(n-1), z1^m z2^(n-2)).

The integral of a class of top degree is the sum over the fixed points of
its restriction divided by e (Atiyah and Bott, Topology 23, 1984; in Chow
groups, Edidin and Graham, Amer. J. Math. 120, 1998).  The sum is a sum of
fractions, and a denominator other than 1 is an error.  Nothing here comes
from ring.py, gamma_class's recurrence or integrate_chern_polynomial's cap
algebra.
"""

from collections.abc import Callable
from fractions import Fraction
from math import prod

from tvcount.counting import fixed_point_weights
from tvcount.cycles import gcd2_excess


def tangent_euler(c: int, i: int) -> int:
    """The product of the tangent weights 2(i'-i), i' != i, of P^c at its
    fixed point i."""
    return prod(2 * (other - i) for other in range(c + 1) if other != i)


def beta_at(problem, z1: int, z2: int, z3: int) -> int:
    """beta restricted to the fixed point where z1, z2, z3 are these."""
    m, n = problem.m, problem.n
    top = m + n - 2
    value = sum((z1 + z2) ** s * z3 ** (top - s) for s in range(top + 1))
    if problem.gcd == 2:
        e20, e11, e02 = gcd2_excess(m, n)
        value -= e20 * z1 ** (m - 2) * z2**n + e11 * z1 ** (m - 1) * z2 ** (n - 1) + e02 * z1**m * z2 ** (n - 2)
    return value


def localise(problem, integrand: Callable[[int, int], int]) -> int:
    """The integral of beta times the class that restricts to
    integrand(w1, w2) at each fixed point, where (w1, w2) are the point's
    weights from fixed_point_weights."""
    m, n = problem.m, problem.n
    top = m + n - 2
    e1, e2, e3 = ([tangent_euler(c, i) for i in range(c + 1)] for c in (m, n, top))
    total = Fraction(0)
    for i in range(m + 1):
        for j in range(n + 1):
            for k in range(top + 1):
                w = fixed_point_weights(problem, i, j, k)
                value = integrand(w.w1, w.w2) * beta_at(problem, m - 2 * i, n - 2 * j, top - 2 * k)
                total += Fraction(value, e1[i] * e2[j] * e3[k])
    if total.denominator != 1:
        raise ArithmeticError(f"the localised sum for {problem} is {total}, not an integer")
    return total.numerator


def bott_count(problem) -> int:
    """The count: gamma = h_N(-x1, -x2) paired with beta."""
    deg = problem.m + problem.n
    return localise(problem, lambda w1, w2: sum((-w1) ** s * (-w2) ** (deg - s) for s in range(deg + 1)))


def bott_chern_integral(problem, coeffs: list[int]) -> int:
    """The integral against beta of sum_k coeffs[k] s1^(N-2k) s2^k, with the
    Chern classes s1 = x1 + x2 and s2 = x1 x2 restricting to w1 + w2 and
    w1 w2."""
    deg = problem.m + problem.n
    return localise(
        problem, lambda w1, w2: sum(c * (w1 + w2) ** (deg - 2 * k) * (w1 * w2) ** k for k, c in enumerate(coeffs))
    )
