"""The localisation oracle (tests/bott_oracle.py) against the package: the
count on every admissible tuple with d <= 30, by the kernel and by the
pairing evaluator's parts, and the Chern integral of seeded polynomials."""

import random

from tvcount import admissible_tuples, degree_of_power_sum_locus, integrate_chern_polynomial, validate

from .bott_oracle import bott_chern_integral, bott_count
from .helpers import count_parts

# the classical anchors 40, 30 and 3762 and the paper's 29822 and 626327
ANCHORS = {(2, 3, 3, 2): 40, (2, 2, 3, 3): 30, (4, 6, 3, 2): 3762, (3, 5, 5, 3): 29822, (4, 10, 5, 2): 626327}


def test_localisation_gives_every_count_up_to_d_30():
    problems = admissible_tuples(30)
    assert len(problems) == 141
    counts = {(p.m, p.n, p.a, p.b): bott_count(p) for p in problems}
    assert {t: counts[t] for t in ANCHORS} == ANCHORS
    for p in problems:
        assert counts[p.m, p.n, p.a, p.b] == degree_of_power_sum_locus(p) == sum(count_parts(p)), p


# degenerate (a or b = 1), m = n, and a == b == 2, as in the Chern-integral
# tests of test_counting
EXTRA_TUPLES = ((1, 5, 5, 1), (2, 6, 3, 1), (1, 1, 1, 1), (1, 2, 4, 2), (2, 4, 4, 2), (1, 1, 2, 2), (2, 2, 2, 2))


def test_localisation_gives_the_chern_integral_of_seeded_polynomials():
    rng = random.Random(26)
    problems = admissible_tuples(30) + [validate(*t) for t in EXTRA_TUPLES]
    for _ in range(60):
        problem = rng.choice(problems)
        deg = problem.m + problem.n
        # zeros, small values and 10^6-sized values, one per s2 power
        coeffs = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10**6, 10**6))) for _ in range(deg // 2 + 1)]
        terms = [(c, deg - 2 * k, k) for k, c in enumerate(coeffs)]
        assert bott_chern_integral(problem, coeffs) == integrate_chern_polynomial(problem, terms), (problem, coeffs)
