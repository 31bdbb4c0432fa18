"""Top-level enumerative API: validation, counts, Chern-polynomial
integration, and fixed-point weight bookkeeping."""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._frozen import Frozen
from .cycles import (
    PowerSumProblem,
    alpha_classes,
    beta_pushforward,
    gamma_class,
)


def validate(m: int, n: int, a: int, b: int) -> PowerSumProblem:
    """Build the PowerSumProblem for raw input: take each value as a positive
    int (integral values such as 3.0 are accepted; bools and non-integral
    values are rejected), normalize to m <= n by swapping (m, a) with (n, b),
    which leaves the count invariant, and let PowerSumProblem check am == bn
    and gcd(m, n) <= 2.

    Degenerate problems (a == 1 or b == 1) are accepted; callers can surface
    PowerSumProblem.degenerate as a warning.
    """
    # checked before the swap, so a message names the caller's argument
    m, n, a, b = (positive_integer(name, v) for name, v in (("m", m), ("n", n), ("a", a), ("b", b)))
    if m > n:
        m, n, a, b = n, m, b, a
    return PowerSumProblem(m=m, n=n, a=a, b=b, d=a * m)


def positive_integer(name: str, value) -> int:
    """``value`` as a positive int; integral values such as 3.0 pass, bools,
    non-integral and non-positive values raise ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            as_int = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if as_int == value and as_int >= 1:
                return as_int
    raise ValueError(f"{name} must be a positive integer, got {value!r}")


def degree_of_power_sum_locus(problem: PowerSumProblem) -> int:
    """Degree of the closure in P^d of the forms f^a + g^b with
    deg f = m, deg g = n: the intersection product of the gamma class with
    the pushed-forward fundamental class.

    This is the raw intersection number.  When a == b the ordered
    representations (f, g) and (g, f) are counted separately, so the number
    is twice the count of unordered decompositions.
    """
    return (gamma_class(problem) * beta_pushforward(problem.m, problem.n)).integrate()


def integrate_chern_polynomial(
    problem: PowerSumProblem,
    terms: Iterable[tuple[int, int, int]],
) -> int:
    """Integrate an arbitrary homogeneous degree-(m+n) polynomial in the two
    tautological Chern classes against the pushed-forward class.

    ``terms`` lists (coeff, e1, e2) monomials coeff * s1^e1 * s2^e2, where s1
    has degree 1 and s2 degree 2; every term must satisfy e1 + 2*e2 == m + n.
    The si are substituted by the alpha classes and the product is integrated.
    Terms are gathered per e2 and summed by Horner's rule in (s1^2, s2), so
    every step multiplies by a class of a few terms.
    """
    term_list = [(int(c), int(e1), int(e2)) for c, e1, e2 in terms]
    deg = problem.m + problem.n
    for c, e1, e2 in term_list:
        if e1 < 0 or e2 < 0 or e1 + 2 * e2 != deg:
            raise ValueError(
                f"Chern polynomial must have degree m+n = {deg}: term (coeff={c}, e1={e1}, e2={e2})"
            )
    coeffs = [0] * (deg // 2 + 1)
    for c, _, e2 in term_list:
        coeffs[e2] += c
    alpha1, alpha2 = alpha_classes(problem)
    alpha1_sq = alpha1 * alpha1
    # acc = sum_(i <= j) coeffs[i] * alpha1^(2(j-i)) * alpha2^i after step j
    acc = alpha1.spec.zero()
    alpha2_pow = alpha1.spec.one()
    for c in coeffs:
        acc = acc * alpha1_sq + c * alpha2_pow
        alpha2_pow = alpha2_pow * alpha2
    if deg % 2:
        acc = acc * alpha1
    return (acc * beta_pushforward(problem.m, problem.n)).integrate()


class WeightPair(Frozen):
    """Unordered pair of torus weights of the rank-2 bundle fiber at a fixed
    point; comparison ignores order."""

    __slots__ = ("w1", "w2")
    w1: int
    w2: int

    def __init__(self, w1: int, w2: int) -> None:
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)

    def _fields(self) -> tuple:
        return (self.w1, self.w2)

    def sorted(self) -> tuple[int, int]:
        return (self.w1, self.w2) if self.w1 <= self.w2 else (self.w2, self.w1)

    def __eq__(self, other):
        if not isinstance(other, WeightPair):
            return NotImplemented
        return self.sorted() == other.sorted()

    def __hash__(self):
        return hash(self.sorted())

    def __repr__(self) -> str:
        return f"WeightPair({self.w1}, {self.w2})"


def fixed_point_weights(problem: PowerSumProblem, i: int, j: int, k: int) -> WeightPair:
    """Torus weights of the rank-2 bundle fiber over the fixed point mapping
    to (x^i y^(m-i), x^j y^(n-j), x^k y^(m+n-2-k)).

    At an unexceptional point k = i + j - 1 the second weight collapses to
    2bj - d.
    """
    m, n, a, b, d = problem.m, problem.n, problem.a, problem.b, problem.d
    i, j, k = int(i), int(j), int(k)
    if not (0 <= i <= m and 0 <= j <= n and 0 <= k <= m + n - 2):
        raise ValueError(f"fixed-point indices out of range: (i, j, k) = ({i}, {j}, {k})")
    return WeightPair(2 * a * i - d, (2 * b * j - d) + 2 * k - 2 * i - 2 * j + 2)


def admissible_tuples(max_d: int) -> list[PowerSumProblem]:
    """All problems with d <= max_d, a >= 2, b >= 2, a | d, b | d and
    gcd(d/a, d/b) in {1, 2}, deduplicated under (a, b) <-> (b, a) by keeping
    the representative with a >= b (so m <= n), sorted by (d, a, b)."""
    out = []
    for d in range(1, int(max_d) + 1):
        divisors = [a for a in range(2, d + 1) if d % a == 0]
        for a in divisors:
            for b in divisors:
                if b > a:
                    break
                if math.gcd(d // a, d // b) <= 2:
                    out.append(PowerSumProblem(m=d // a, n=d // b, a=a, b=b, d=d))
    out.sort(key=lambda p: (p.d, p.a, p.b))
    return out
