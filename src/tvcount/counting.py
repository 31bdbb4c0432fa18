"""Top-level enumerative API: validation, counts, Chern-polynomial
integration, and fixed-point weight bookkeeping."""

import math
from collections.abc import Iterable

from . import _NAMES
from ._frozen import Frozen, integer, integral
from .cycles import PowerSumProblem, beta_pushforward, gamma_class, gcd2_excess

__all__ = list(_NAMES["counting"])


def validate(m: int, n: int, a: int, b: int) -> PowerSumProblem:
    """The PowerSumProblem for raw input: calling it is the same as calling
    PowerSumProblem(m, n, a, b), which reads, normalizes and checks it."""
    return PowerSumProblem(m, n, a, b)


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

    ``terms`` lists integer (coeff, e1, e2) monomials coeff * s1^e1 * s2^e2
    with e1 + 2*e2 == m + n.  At z3 = z1 + z2 the Chern roots are -a*z1 and
    -b*z2, so s1^(N-2k) s2^k pairs with beta as (-1)^N C(N-2k, m-k) a^m b^n,
    less _pair_with_beta's cap and excess (N = m+n).
    """
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    deg = m + n
    coeffs = [0] * max(deg // 2 + 1, 3)
    for raw in terms:
        try:
            term = [integral(v) for v in raw]
        except TypeError:  # raw is not iterable
            term = []
        if len(term) != 3 or None in term:
            raise ValueError(f"Chern polynomial terms must be integers: term (coeff, e1, e2) = {raw!r}")
        c, e1, e2 = term
        if e1 < 0 or e2 < 0 or e1 + 2 * e2 != deg:
            raise ValueError(f"Chern polynomial must have degree m+n = {deg}: term (coeff={c}, e1={e1}, e2={e2})")
        coeffs[e2] += c
    # a term with k > m pairs with nothing, and C(N-2k, m-k) would raise
    main = a**m * b**n * sum(math.comb(deg - 2 * k, m - k) * c for k, c in enumerate(coeffs[: m + 1]))
    return sum(_pair_with_beta(problem, main, *coeffs[:3]))


def _pair_with_beta(problem: PowerSumProblem, main: int, c0: int, c1: int, c2: int) -> tuple[int, int, int]:
    """The pairing with beta of a degree-(m+n) class in s1, s2 as (main
    term, cap, gcd-2 excess), each signed and summing to the integral; the
    excess is 0 at gcd 1.  ``main`` is a^m b^n sum_k C(N-2k, m-k) c_k.  The
    cap takes the three monomials whose z3 exponent passes N-2, the excess
    at gcd 2 the three at the excess class.  Their uncapped coefficients
    L_ij at z1^i z2^j z3^(N-i-j) are the degree-2 part of s1 = -1 + (1-a)z1
    + (1-b)z2, s2 = a*z1*(1 - z1 - (1-b)z2) at z3 = 1: only c0, c1, c2 reach it.
    """
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    # the uncapped L_ij, with the common sign (-1)^N taken out
    deg, p, q = m + n, 1 - a, 1 - b
    l10, l01 = a * c1 - deg * p * c0, -deg * q * c0
    cap = math.comb(deg, m) * c0 + math.comb(deg - 1, m - 1) * l10 + math.comb(deg - 1, m) * l01
    excess = 0
    if problem.gcd == 2:
        l20 = math.comb(deg, 2) * p * p * c0 - a * (1 + (deg - 2) * p) * c1 + a * a * c2
        l11 = (deg - 1) * q * (deg * p * c0 - a * c1)
        l02 = math.comb(deg, 2) * q * q * c0
        e20, e11, e02 = gcd2_excess(m, n)
        excess = e20 * l20 + e11 * l11 + e02 * l02
    return (-main, cap, excess) if deg % 2 else (main, -cap, -excess)


def _count_parts(problem: PowerSumProblem) -> tuple[int, int, int]:
    """The count as (main term, cap, gcd-2 excess): _pair_with_beta fed
    gamma = h_N(s1, s2), N = m+n, whose main sum is (-1)^N a^m b^n and whose
    coefficient at s2^k is c_k = (-1)^(N-k) C(N-k, k)."""
    big_n = problem.m + problem.n
    c0, c1, c2 = [(-1) ** (big_n - k) * math.comb(big_n - k, k) for k in range(3)]
    return _pair_with_beta(problem, (-1) ** big_n * problem.a**problem.m * problem.b**problem.n, c0, c1, c2)


class WeightPair(Frozen):
    """Unordered pair of torus weights of the rank-2 bundle fiber at a fixed
    point, stored in order (w1 <= w2), so comparison ignores order."""

    __slots__ = ("w1", "w2")
    w1: int
    w2: int

    def __init__(self, w1: int, w2: int) -> None:
        w1, w2 = sorted((integer("w1", w1, None), integer("w2", w2, None)))
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)


def fixed_point_weights(problem: PowerSumProblem, i: int, j: int, k: int) -> WeightPair:
    """Torus weights of the rank-2 bundle fiber over the fixed point mapping
    to (x^i y^(m-i), x^j y^(n-j), x^k y^(m+n-2-k)).

    At an unexceptional point k = i + j - 1 one of the two weights is
    2bj - d.
    """
    m, n, a, b, d = problem.m, problem.n, problem.a, problem.b, problem.d
    i, j, k = integer("i", i), integer("j", j), integer("k", k)
    if i > m or j > n or k > m + n - 2:
        raise ValueError(f"fixed-point indices out of range: (i, j, k) = ({i}, {j}, {k})")
    return WeightPair(2 * a * i - d, (2 * b * j - d) + 2 * k - 2 * i - 2 * j + 2)


def admissible_tuples(max_d: int) -> list[PowerSumProblem]:
    """All problems with d <= max_d, a >= 2, b >= 2, a | d, b | d and
    gcd(d/a, d/b) in {1, 2}, deduplicated under (a, b) <-> (b, a) by keeping
    the representative with a >= b (so m <= n), sorted by (d, a, b)."""
    max_d = integer("max_d", max_d)
    # the divisors >= 2 of every d <= max_d, ascending, sieved in one sweep
    divisors_of: list[list[int]] = [[] for _ in range(max_d + 1)]
    for a in range(2, max_d + 1):
        for d in range(a, max_d + 1, a):
            divisors_of[d].append(a)
    out = []
    # d, then a, then b ascending: already the (d, a, b) order
    for d, divisors in enumerate(divisors_of):
        for a in divisors:
            for b in divisors:
                if b > a:
                    break
                if math.gcd(d // a, d // b) <= 2:
                    out.append(PowerSumProblem(d // a, d // b, a, b))
    return out
