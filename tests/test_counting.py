"""Top-level counting API: validation, the degree integral, Chern-polynomial
integration, fixed-point weights, and the independent sympy and ring-route
cross-checks."""

import math
import random

import pytest

from tvcount import (
    RingSpec,
    TruncatedPolynomial,
    WeightPair,
    admissible_tuples,
    beta_pushforward,
    degree_of_power_sum_locus,
    fixed_point_weights,
    integrate_chern_polynomial,
    validate,
)
from .helpers import (
    all_admissible,
    brute_force_admissible,
    closed_formula_count,
    count_parts,
    gamma_terms,
    horner_chern_integral,
    ring_route_count,
    segre_class,
)
from .sympy_reference import sympy_count


# -- validate ---------------------------------------------------------------------


def test_validate_clebsch_tuple():
    p = validate(2, 3, 3, 2)
    assert (p.m, p.n, p.a, p.b, p.d) == (2, 3, 3, 2, 6)
    assert p.gcd == 1 and not p.degenerate


def test_validate_normalizes_swap():
    p = validate(6, 4, 2, 3)
    assert (p.m, p.n, p.a, p.b, p.d) == (4, 6, 3, 2, 12)


def test_validate_rejects_large_gcd():
    with pytest.raises(ValueError, match="unsupported gcd"):
        validate(4, 8, 4, 2)


def test_validate_rejects_mismatched_products():
    with pytest.raises(ValueError, match="am != bn"):
        validate(2, 3, 2, 3)
    with pytest.raises(ValueError):
        validate(0, 1, 1, 1)
    with pytest.raises(ValueError, match="^n must be a positive integer, got -1$"):
        validate(2, -1, 1, 1)


def test_validate_rejects_non_integers():
    # int() would truncate 2.5 to the Clebsch tuple and read True as m = 1
    for bad in ((2.5, 3, 3, 2), (True, 2, 2, 1), (2, 3, 3, "2"), (2, 3, None, 2)):
        with pytest.raises(ValueError, match="must be a positive integer"):
            validate(*bad)


def test_validate_accepts_integral_values():
    p = validate(2, 3.0, 3, 2)
    assert (p.m, p.n, p.a, p.b, p.d) == (2, 3, 3, 2, 6)
    assert all(type(v) is int for v in (p.m, p.n, p.a, p.b, p.d))


def test_validate_flags_degenerate():
    assert validate(5, 1, 1, 5).degenerate
    assert validate(1, 5, 5, 1).degenerate
    assert not validate(2, 3, 3, 2).degenerate


# -- degree_of_power_sum_locus --------------------------------------------------------


def test_degree_clebsch():
    assert degree_of_power_sum_locus(validate(2, 3, 3, 2)) == 40


def test_degree_line_case():
    assert degree_of_power_sum_locus(validate(1, 1, 3, 3)) == 2


def swapped_count(problem) -> int:
    """The count with the roles of f and g exchanged and no normalization:
    caps (n, m, m+n-2), the alpha classes of the tuple (n, m, b, a), and beta
    with z1 and z2 exchanged."""
    m, n, a, b = problem.m, problem.n, problem.a, problem.b
    spec = RingSpec((n, m, m + n - 2))
    z1, z2, z3 = spec.variables()
    alpha1 = (1 - b) * z1 + (1 - a) * z2 - z3
    alpha2 = -b * (z1 * (z1 + (1 - a) * z2 - z3))
    beta = TruncatedPolynomial(spec, {(q, p, r): c for (p, q, r), c in beta_pushforward(m, n).terms.items()})
    return (segre_class(alpha1, alpha2, m + n) * beta).integrate()


def test_degree_invariant_under_swap():
    problems = admissible_tuples(30)
    assert len(problems) == 141
    for problem in problems:
        assert swapped_count(problem) == degree_of_power_sum_locus(problem), problem


def test_degree_matches_ring_route():
    # geometric-series gamma, explicit-sum beta, general product loop
    for problem in admissible_tuples(40):
        assert degree_of_power_sum_locus(problem) == ring_route_count(problem), problem


# edge tuples: b = 1, a = 1, a = b = 2, and m = n at gcd 1 and 2
CLOSED_FORMULA_EDGES = ((1, 5, 5, 1), (2, 6, 3, 1), (1, 2, 4, 2), (2, 2, 3, 3), (2, 4, 4, 2), (1, 1, 2, 2), (2, 2, 2, 2), (1, 1, 1, 1), (2, 2, 1, 1))


def test_degree_matches_closed_formula():
    # the formula shares with the kernel only gcd2_excess's constants; the
    # pairing evaluator's parts sum to it, with no excess at gcd 1
    problems = admissible_tuples(150)
    assert len(problems) == 1310
    for problem in [*problems, *(validate(*t) for t in CLOSED_FORMULA_EDGES)]:
        count = closed_formula_count(problem)
        assert degree_of_power_sum_locus(problem) == count, problem
        main, cap, excess = count_parts(problem)
        assert main + cap + excess == count and (problem.gcd == 2 or excess == 0), problem
    assert count_parts(validate(4, 6, 3, 2)) == (5184, -882, -540)


def test_degree_nonnegative_small():
    for problem in all_admissible(20):
        assert degree_of_power_sum_locus(problem) >= 0


def test_degree_matches_sympy_reference():
    for problem in all_admissible(24):
        got = degree_of_power_sum_locus(problem)
        assert got == sympy_count(problem.m, problem.n, problem.a, problem.b), problem


def differences(values: list[int], order: int) -> list[int]:
    for _ in range(order):
        values = [v - u for u, v in zip(values, values[1:])]
    return values


# a family fixes (m, n) and scales (a, b) = t * (n, m) / gcd(m, n); a family's
# count as a polynomial in t, summed from (power of t, coefficient)
FAMILY_POLYNOMIALS = {
    (1, 1): ((2, 1), (1, -3), (0, 2)),
    (1, 2): ((3, 2), (1, -8), (0, 6)),
    (2, 2): ((4, 1), (2, -10), (1, 15), (0, -6)),
    (2, 3): ((5, 72), (1, -72), (0, 40)),
    (4, 6): ((10, 5184), (2, -7920), (1, 9108), (0, -2610)),
    (4, 10): ((14, 640000), (2, -42000), (1, 33150), (0, -4823)),
    (6, 8): ((14, 26873856), (2, -241920), (1, 184860), (0, -32305)),
}


def test_count_along_a_family_is_its_leading_power_plus_a_low_polynomial():
    # count - a^m b^n is linear in t at gcd 1 and quadratic at gcd 2: a check
    # that shares no constant with the closed formula or the excess correction.
    # At gcd 1 the closed formula makes that line -n(N+1)C(N-1,m-1) t +
    # (N-1)C(N,m), N = m+n
    families = {1: 0, 2: 0}
    for m in range(1, 9):
        for n in range(m, 17):
            g = math.gcd(m, n)
            if g > 2:
                continue
            families[g] += 1
            counts, rest = [], []
            for t in range(1, 8):
                a, b = t * n // g, t * m // g
                counts.append(degree_of_power_sum_locus(validate(m, n, a, b)))
                rest.append(counts[-1] - a**m * b**n)
                if g == 1:
                    assert rest[-1] == (m + n - 1) * math.comb(m + n, m) - n * (m + n + 1) * math.comb(m + n - 1, m - 1) * t, (m, n, t)
            assert differences(rest, g + 1) == [0] * (6 - g), (m, n)
            if (m, n) in FAMILY_POLYNOMIALS:
                expected = [sum(c * t**k for k, c in FAMILY_POLYNOMIALS[m, n]) for t in range(1, 8)]
                assert counts == expected, (m, n)
    assert families == {1: 62, 2: 17}


# -- integrate_chern_polynomial ---------------------------------------------------------


def test_chern_polynomial_recovers_count():
    problem = validate(2, 3, 3, 2)
    assert integrate_chern_polynomial(problem, gamma_terms(5)) == 40


def test_chern_polynomial_zero():
    problem = validate(2, 3, 3, 2)
    assert integrate_chern_polynomial(problem, []) == 0
    assert integrate_chern_polynomial(problem, [(0, 5, 0)]) == 0


# beyond admissible_tuples: degenerate (a or b = 1), m = n, and a == b == 2
CHERN_EXTRA_TUPLES = ((1, 5, 5, 1), (2, 6, 3, 1), (1, 1, 1, 1), (1, 2, 4, 2), (2, 2, 3, 3), (2, 4, 4, 2), (1, 1, 2, 2), (2, 2, 2, 2))


def test_chern_polynomial_matches_horner_oracle():
    rng = random.Random(6)
    problems = admissible_tuples(60) + [validate(*t) for t in CHERN_EXTRA_TUPLES]
    for problem in problems:
        deg = problem.m + problem.n
        # zeros, small values and 10^6-sized values, one coefficient per s2 power
        coeffs = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10**6, 10**6))) for _ in range(deg // 2 + 1)]
        terms = [(c, deg - 2 * e2, e2) for e2, c in enumerate(coeffs)]
        assert integrate_chern_polynomial(problem, terms) == horner_chern_integral(problem, terms), problem


def test_chern_polynomial_of_gamma_is_the_count():
    # gamma written in s1, s2 carries the gcd-2 excess through the Chern
    # integral's L_ij, the count through beta's subtracted terms
    for problem in admissible_tuples(40):
        deg = problem.m + problem.n
        assert integrate_chern_polynomial(problem, gamma_terms(deg)) == degree_of_power_sum_locus(problem), problem


def test_chern_polynomial_rejects_non_integers():
    problem = validate(2, 3, 3, 2)
    for bad in ((2.5, 5, 0), (1, 5.9, 0), (True, 5, 0), ("3", 5, 0), (1, 3, None), (1, 5), (1, 5, 0, 0), 5, None):
        with pytest.raises(ValueError, match="must be integers: term"):
            integrate_chern_polynomial(problem, [bad])
    assert integrate_chern_polynomial(problem, [(3.0, 5.0, 0)]) == integrate_chern_polynomial(problem, [(3, 5, 0)])


def test_chern_polynomial_degree_gate():
    problem = validate(2, 3, 3, 2)
    with pytest.raises(ValueError, match="degree m\\+n"):
        integrate_chern_polynomial(problem, [(1, 4, 0)])
    with pytest.raises(ValueError):
        integrate_chern_polynomial(problem, [(1, 7, -1)])


# -- fixed-point weights -------------------------------------------------------------------


def test_weight_pair_is_unordered():
    assert WeightPair(3, -1) == WeightPair(-1, 3)
    assert WeightPair(3, -1) != WeightPair(3, 1)
    assert hash(WeightPair(3, -1)) == hash(WeightPair(-1, 3))


def test_fixed_point_weight_examples():
    problem = validate(2, 3, 3, 2)
    assert fixed_point_weights(problem, 0, 0, 0) == WeightPair(-6, -4)
    assert fixed_point_weights(problem, 2, 3, 3) == WeightPair(6, 4)


def test_unexceptional_points_collapse():
    problem = validate(2, 3, 3, 2)
    m, n, b, d = problem.m, problem.n, problem.b, problem.d
    for i in range(m + 1):
        for j in range(n + 1):
            k = i + j - 1
            if 0 <= k <= m + n - 2:
                w = fixed_point_weights(problem, i, j, k)
                assert 2 * b * j - d in (w.w1, w.w2)


def test_fixed_point_weights_range_errors():
    problem = validate(2, 3, 3, 2)
    for bad in ((3, 0, 0), (0, 4, 0), (0, 0, 4), (-1, 0, 0)):
        with pytest.raises(ValueError):
            fixed_point_weights(problem, *bad)


def test_weights_match_line_bundle_pair_small():
    # the rank-2 fiber weights agree with those of O(-a,0,0) + O(1,1-b,-1),
    # with the fiber of O(-1) at x^i y^(m-i) carrying weight 2i - m
    for problem in all_admissible(8):
        m, n, a, b = problem.m, problem.n, problem.a, problem.b
        for i in range(m + 1):
            for j in range(n + 1):
                for k in range(m + n - 1):
                    expected = WeightPair(
                        a * (2 * i - m),
                        -(2 * i - m) + (b - 1) * (2 * j - n) + (2 * k - (m + n - 2)),
                    )
                    assert fixed_point_weights(problem, i, j, k) == expected


# -- admissible_tuples -------------------------------------------------------------------


def test_admissible_tuples_rows():
    rows = {(p.d, p.a, p.b) for p in admissible_tuples(6)}
    assert (6, 3, 2) in rows
    assert (4, 2, 2) in rows
    assert (6, 2, 3) not in rows


def test_admissible_tuples_filters_and_order():
    problems = admissible_tuples(14)
    keys = [(p.d, p.a, p.b) for p in problems]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for p in problems:
        assert p.a >= 2 and p.b >= 2 and p.a >= p.b
        assert p.d % p.a == 0 and p.d % p.b == 0
        assert p.gcd in (1, 2)
        assert p.m <= p.n


def test_admissible_tuples_empty_below_two():
    assert admissible_tuples(1) == []


def test_admissible_tuples_match_brute_force():
    for max_d in (*range(61), 300):
        rows = [(p.d, p.a, p.b, p.m, p.n) for p in admissible_tuples(max_d)]
        assert rows == brute_force_admissible(max_d), max_d
