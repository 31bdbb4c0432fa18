"""Cycle classes: blow-up classes, the pushed-forward fundamental class, and
the alpha/gamma classes feeding the intersection product."""

import hashlib
import math

import pytest

from tvcount import (
    PowerSumProblem,
    RingSpec,
    admissible_tuples,
    alpha_classes,
    ambient_spec,
    beta_pushforward,
    blowup_class_S,
    gamma_class,
    validate,
)
from tvcount.cycles import chern_roots

from .helpers import (
    all_admissible,
    explicit_beta_base,
    formula_beta,
    formula_gamma,
    multinomial_gamma,
    segre_class,
    series_beta_base,
    series_gamma,
)


def closed_sum(spec: RingSpec, r: int):
    lam, zeta = spec.variables()
    total = spec.zero()
    for k in range(r):
        total = total + lam ** (r - 1 - k) * zeta ** k
    return total


# -- blow-up classes --------------------------------------------------


def test_blowup_class_examples():
    assert blowup_class_S(1) == RingSpec((0, 0)).one()
    lam, zeta = RingSpec((1, 1)).variables()
    assert blowup_class_S(2) == lam + zeta
    lam, zeta = RingSpec((2, 2)).variables()
    assert blowup_class_S(3) == lam ** 2 + lam * zeta + zeta ** 2


def test_blowup_class_matches_closed_sum():
    for r in range(1, 13):
        assert blowup_class_S(r) == closed_sum(RingSpec((r - 1, r - 1)), r)


def test_blowup_class_rejects_small_caps():
    # r = 0 would need caps (-1, -1)
    with pytest.raises(ValueError):
        blowup_class_S(0)


# -- beta pushforward ---------------------------------------------------------------


def test_beta_pushforward_smallest_case():
    assert beta_pushforward(1, 1) == ambient_spec(1, 1).one()


def test_beta_pushforward_2_2():
    spec = ambient_spec(2, 2)
    expected = (
        spec.monomial((0, 0, 2), 1)
        + spec.monomial((1, 0, 1), 1)
        + spec.monomial((0, 1, 1), 1)
        + spec.monomial((1, 1, 0), 1)
    )
    assert beta_pushforward(2, 2) == expected


def test_beta_pushforward_4_6_corrected_coefficient():
    cls = beta_pushforward(4, 6)
    assert cls.coefficient((2, 6, 0)) == math.comb(8, 2) - 4 * 4


def test_beta_pushforward_errors():
    with pytest.raises(ValueError, match="unsupported gcd"):
        beta_pushforward(3, 6)
    with pytest.raises(ValueError, match="normalize"):
        beta_pushforward(3, 2)
    with pytest.raises(ValueError):
        beta_pushforward(0, 2)


# sha256 of the str and of the to_latex of beta_pushforward(m, n) for every
# 1 <= m <= n <= 12 with gcd(m, n) <= 2, one class a line
BETA_TEXT_SHA256 = "9b2f4cd664d5dc4baa430428d21fe54a5e9d20e6cc40ef0bdcafa0009f31de58"
BETA_LATEX_SHA256 = "3aed43879ee0db8e2c3e0e523d62615f43837d0f9818035196ccc1b40220f67c"


def test_beta_class_text_and_latex_are_pinned():
    classes = [beta_pushforward(m, n) for n in range(1, 13) for m in range(1, n + 1) if math.gcd(m, n) <= 2]
    assert len(classes) == 58
    assert hashlib.sha256("\n".join(map(str, classes)).encode()).hexdigest() == BETA_TEXT_SHA256
    assert hashlib.sha256("\n".join(c.to_latex() for c in classes).encode()).hexdigest() == BETA_LATEX_SHA256


def test_beta_pushforward_is_homogeneous():
    for m, n in ((1, 4), (2, 3), (2, 2), (4, 6), (2, 5)):
        cls = beta_pushforward(m, n)
        assert cls == cls.homogeneous_part(m + n - 2)
        assert not cls.is_zero


def test_beta_pushforward_series_equals_sum_form():
    # the two printed forms of the gcd-1 class, recomputed here from scratch
    for m in range(1, 6):
        for n in range(m, 7):
            if math.gcd(m, n) > 2:
                continue
            assert series_beta_base(m, n) == explicit_beta_base(m, n)


def test_beta_pushforward_symmetric_when_degrees_match():
    # m == n forces gcd(m, n) = m, so only (1, 1) and (2, 2) are supported
    for m in (1, 2):
        cls = beta_pushforward(m, m)
        swapped = {(e2, e1, e3): c for (e1, e2, e3), c in cls.terms.items()}
        assert swapped == cls.terms


def test_beta_pushforward_nonnegative_small():
    for m in range(1, 7):
        for n in range(m, 7):
            if math.gcd(m, n) > 2:
                continue
            assert all(c >= 0 for c in beta_pushforward(m, n).terms.values())


# -- problem type ----------------------------------------------------------------------


def test_problem_invariants():
    PowerSumProblem(m=2, n=3, a=3, b=2)
    with pytest.raises(ValueError, match="am != bn"):
        PowerSumProblem(m=2, n=3, a=3, b=3)
    # m > n is normalized, not refused
    assert PowerSumProblem(m=3, n=2, a=2, b=3) == PowerSumProblem(m=2, n=3, a=3, b=2)
    with pytest.raises(ValueError):
        PowerSumProblem(m=3, n=6, a=2, b=1)
    with pytest.raises(ValueError):
        PowerSumProblem(m=0, n=1, a=1, b=1)
    with pytest.raises(ValueError, match="positive integer"):
        PowerSumProblem(m=True, n=2, a=2, b=1)


def test_problem_degenerate_flag():
    assert PowerSumProblem(m=1, n=2, a=2, b=1).degenerate
    assert not PowerSumProblem(m=2, n=3, a=3, b=2).degenerate


# -- alpha classes -----------------------------------------------------------------------


def test_alpha_classes_unit_powers():
    problem = PowerSumProblem(m=2, n=2, a=1, b=1)
    spec = ambient_spec(2, 2)
    z1, z2, z3 = spec.variables()
    a1, a2 = alpha_classes(problem)
    assert a1 == -z3
    assert a2 == -(z1 ** 2) + z1 * z3


def test_alpha_classes_clebsch():
    problem = PowerSumProblem(m=2, n=3, a=3, b=2)
    spec = ambient_spec(2, 3)
    z1, z2, z3 = spec.variables()
    a1, a2 = alpha_classes(problem)
    assert a1 == -2 * z1 - z2 - z3
    assert a2 == -3 * z1 ** 2 + 3 * z1 * z2 + 3 * z1 * z3


def test_alpha_classes_5_3():
    problem = PowerSumProblem(m=3, n=5, a=5, b=3)
    spec = ambient_spec(3, 5)
    z1, z2, z3 = spec.variables()
    a1, a2 = alpha_classes(problem)
    assert a1 == -4 * z1 - 2 * z2 - z3
    assert a2 == -5 * z1 ** 2 + 10 * z1 * z2 + 5 * z1 * z3


# b = 1, where x2 has no z2 term, and m = n = 1, where the cap of z3 is 0 and
# x2 has no z3 term
EDGE_ROOTS = ((1, 5, 5, 1), (2, 6, 3, 1), (1, 2, 2, 1), (1, 1, 3, 3))


def test_chern_roots_factor_the_total_chern_class():
    # 1 + alpha1 + alpha2 == (1 + x1)(1 + x2), with both roots and both alphas
    # written out; == compares term dicts, so a stored zero coefficient or a
    # z3 term at cap 0 fails
    problems = all_admissible(24)
    assert {validate(*t) for t in EDGE_ROOTS} <= set(problems)
    for problem in problems:
        z1, z2, z3 = ambient_spec(problem.m, problem.n).variables()
        a, b = problem.a, problem.b
        x1, x2 = chern_roots(problem)
        assert x1 == -a * z1, problem
        assert x2 == z1 + (1 - b) * z2 - z3, problem
        assert x1 + x2 == (1 - a) * z1 + (1 - b) * z2 - z3, problem
        assert x1 * x2 == -a * z1 * z1 - a * (1 - b) * z1 * z2 + a * z1 * z3, problem


def test_the_classes_of_a_count_share_one_spec():
    for t in ((4, 10, 5, 2), (1, 1, 3, 3), (2, 6, 3, 1)):
        problem = validate(*t)
        spec = ambient_spec(problem.m, problem.n)
        gamma, beta = gamma_class(problem), beta_pushforward(problem.m, problem.n)
        assert gamma.spec is beta.spec is (gamma * beta).spec is spec, t
        assert all(x.spec is spec for x in (*chern_roots(problem), *alpha_classes(problem))), t


# -- gamma class -------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_gamma_class_line_case(d):
    problem = PowerSumProblem(m=1, n=1, a=d, b=d)
    expected = ambient_spec(1, 1).monomial((1, 1, 0), (d - 1) * (d - 2))
    assert gamma_class(problem) == expected


def test_gamma_class_is_homogeneous():
    for (m, n, a, b) in ((2, 3, 3, 2), (4, 6, 3, 2), (1, 4, 4, 1)):
        problem = PowerSumProblem(m=m, n=n, a=a, b=b)
        g = gamma_class(problem)
        assert g == g.homogeneous_part(m + n)


def test_gamma_class_two_paths_agree():
    # series route vs multinomial route, recomputed here from the alphas
    problem = PowerSumProblem(m=2, n=3, a=3, b=2)
    assert series_gamma(problem) == multinomial_gamma(problem) == gamma_class(problem)


def test_gamma_class_matches_recurrence():
    # closed form vs h_k = -alpha1*h_(k-1) - alpha2*h_(k-2), degenerate tuples included
    problems = all_admissible(60)
    assert len(problems) == 472
    for problem in problems:
        alpha1, alpha2 = alpha_classes(problem)
        assert gamma_class(problem) == segre_class(alpha1, alpha2, problem.m + problem.n), problem


# -- per-term formulas ----------------------------------------------------------------------

# b = 1 (only q = 0 survives), a = 1, and m = n = 1, where the z3 cap is 0
EDGE_PROBLEMS = (
    [validate(1, n, n, 1) for n in range(1, 8)]
    + [validate(2, 2 * k, k, 1) for k in (1, 2, 3, 5)]
    + [validate(1, 1, a, a) for a in range(1, 8)]
)


def test_gamma_class_matches_its_per_term_formula():
    problems = admissible_tuples(60) + EDGE_PROBLEMS
    assert len(problems) == 382 + 18
    for problem in problems:
        assert gamma_class(problem) == formula_gamma(problem), problem


def test_beta_pushforward_matches_its_per_term_formula():
    pairs = {(p.m, p.n) for p in admissible_tuples(60) + EDGE_PROBLEMS}
    assert {(1, 1), (2, 2), (1, 7), (2, 10)} <= pairs
    for m, n in pairs:
        assert beta_pushforward(m, n) == formula_beta(m, n), (m, n)
