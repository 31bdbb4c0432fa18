"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen.

Criterion 4 checks the transvectant's structural coefficients.  The
coefficient of f_i g_j in t_(i+j-1) is c^(m,n)_ij = C(m,i) C(n,j) (mj - in),
where m = deg f and n = deg g.  Because {f, g} = -{g, f}, the symmetry that
holds for all degrees swaps the degrees along with the indices:
c^(m,n)_ij + c^(n,m)_ji == 0, and c^(m,n)_ij == 0 exactly when i*n == j*m.
Swapping only the indices reads f with index j and g with index i, which is
not a symmetry once m != n: for (m, n) = (2, 3) the pair (i, j) = (0, 2)
gives 12 and -6, and for (m, n) = (2, 4) the coefficient at (1, 2) is 0.
When m == n the index-only claims (c_ij + c_ji == 0, and c_ij != 0 off the
diagonal) are the degree-swapped ones, and they are asserted as stated.
"""

import io
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

from tvcount import (
    WeightPair,
    admissible_tuples,
    beta_pushforward,
    blowup_class_S,
    degree_of_power_sum_locus,
    fixed_point_weights,
    gamma_class,
    mul_form,
    pow_form,
    transvectant,
    validate,
)
from tvcount.cli import main
from tvcount.ring import RingSpec

from .helpers import (
    all_admissible,
    excess_correction,
    explicit_beta_base,
    multinomial_gamma,
    rand_form,
    series_beta_base,
    series_gamma,
    structural_coefficient,
    structural_support,
)

PUBLISHED = ((2, 3, 3, 2, 40), (4, 6, 3, 2, 3762), (3, 5, 5, 3, 29822), (4, 10, 5, 2, 626327))

# A classical gcd-2 anchor beside the published counts.  f^3 + g^3 =
# (f + g)(f + wg)(f + w^2 g), w a primitive cube root of 1: a product of three
# members of a pencil of quadrics, and any three distinct members can be
# brought to this form.  So the locus of (2,2,3,3) is the set of binary
# sextics whose roots split into three pairs of one involution: the zero set
# of Clebsch's skew invariant, of degree 15 (Clebsch 1872; Bolza, Amer. J.
# Math. 10, 1887).  The count takes ordered pairs (f, g), so it is 2 * 15.
CLASSICAL_ANCHOR = (2, 2, 3, 3, 30)


@contextmanager
def report(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {description}", flush=True)
        raise
    print(f"\nACCEPTANCE {num}: PASS - {description}", flush=True)


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_published_counts():
    with report(1, "the four classical counts reproduce exactly, each in under 1 s"):
        for m, n, a, b, expected in PUBLISHED:
            start = time.perf_counter()
            got = degree_of_power_sum_locus(validate(m, n, a, b))
            elapsed = time.perf_counter() - start
            assert got == expected, f"({m},{n},{a},{b}): expected {expected}, got {got}"
            assert elapsed < 1.0, f"({m},{n},{a},{b}) took {elapsed:.2f}s"


def test_classical_anchor_two_cubes():
    m, n, a, b, expected = CLASSICAL_ANCHOR
    assert degree_of_power_sum_locus(validate(m, n, a, b)) == expected
    assert run_cli("count", "--m", str(m), "--n", str(n), "--a", str(a), "--b", str(b)) == (0, f"{expected}\n", "")


def test_criterion_2_cross_formula_identities():
    with report(2, "series-quotient, closed-sum and kernel formulas agree exactly"):
        # blow-up class vs closed sum, r <= 20
        for r in range(1, 21):
            spec = RingSpec((r - 1, r - 1))
            lam, zeta = spec.variables()
            closed = spec.zero()
            for k in range(r):
                closed = closed + lam ** (r - 1 - k) * zeta ** k
            assert blowup_class_S(r) == closed, f"r={r}"

        # pushforward, all m+n <= 24: the series and explicit-sum forms of the
        # base class agree, and beta_pushforward equals the explicit sum minus
        # the gcd-2 excess correction (zero for gcd 1)
        for m in range(1, 13):
            for n in range(m, 25 - m):
                if math.gcd(m, n) > 2:
                    continue
                explicit = explicit_beta_base(m, n)
                assert series_beta_base(m, n) == explicit, f"(m,n)=({m},{n})"
                assert beta_pushforward(m, n) == explicit - excess_correction(m, n), f"(m,n)=({m},{n})"

        # gamma: closed form vs geometric-series form vs multinomial form,
        # all admissible d <= 24
        for problem in all_admissible(24):
            assert gamma_class(problem) == series_gamma(problem) == multinomial_gamma(problem), problem


def test_criterion_3_transvectant_property_suite():
    with report(3, "exact transvectant identities over 200+ randomized cases"):
        rng = random.Random(2026)
        cases = 0

        # bilinearity
        for _ in range(60):
            e, eg = rng.randint(1, 4), rng.randint(1, 4)
            f1, f2, g = rand_form(rng, e), rand_form(rng, e), rand_form(rng, eg)
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            left = transvectant(a * f1 + b * f2, g)
            assert left == a * transvectant(f1, g) + b * transvectant(f2, g)
            cases += 1

        # antisymmetry for equal degrees
        for _ in range(50):
            e = rng.randint(1, 5)
            f, g = rand_form(rng, e), rand_form(rng, e)
            assert transvectant(f, g) == -transvectant(g, f)
            cases += 1

        # power rule, degrees <= 4 and k, l <= 3
        for mf in range(1, 5):
            for mg in range(1, 5):
                for k in range(1, 4):
                    for l in range(1, 4):
                        f = rand_form(rng, mf, zero_ok=False)
                        g = rand_form(rng, mg, zero_ok=False)
                        lhs = transvectant(pow_form(f, k), pow_form(g, l))
                        rhs = (k * l) * mul_form(
                            mul_form(pow_form(f, k - 1), pow_form(g, l - 1)), transvectant(f, g)
                        )
                        assert lhs == rhs, (mf, mg, k, l)
                        cases += 1

        # common-power vanishing for gcd-structured pairs
        for _ in range(50):
            g = rng.randint(1, 3)
            u, v = rng.randint(1, 3), rng.randint(1, 3)
            h = rand_form(rng, g, zero_ok=False)
            sf = Fraction(rng.choice([x for x in range(-3, 4) if x]), rng.randint(1, 3))
            sg = Fraction(rng.choice([x for x in range(-3, 4) if x]), rng.randint(1, 3))
            assert transvectant(sf * pow_form(h, u), sg * pow_form(h, v)).is_zero
            cases += 1

        assert cases >= 200, cases


def test_criterion_4_transvectant_structure_claims():
    description = (
        "structural coefficient claims for 1 <= m <= n <= 10 "
        "(index-sum support; c^(m,n)_ij + c^(n,m)_ji == 0; c^(m,n)_ij == 0 "
        "exactly when i*n == j*m; for m == n, off-diagonal pairs summing to "
        "zero and off-diagonal coefficients nonzero)"
    )
    with report(4, description):
        violations = []
        for m in range(1, 11):
            for n in range(m, 11):
                for i in range(m + 1):
                    for j in range(n + 1):
                        if not (1 <= i + j <= m + n - 1):
                            continue
                        # support: the basis pair (i, j) contributes only to t_(i+j-1)
                        assert structural_support(m, n, i, j) <= {i + j - 1}, (m, n, i, j)
                        cij = structural_coefficient(m, n, i, j)
                        # {f, g} = -{g, f}: swap the degrees with the indices
                        swapped = structural_coefficient(n, m, j, i)
                        if cij + swapped != 0:
                            violations.append((m, n, i, j, "swap", cij, swapped))
                        # zero exactly on the weighted diagonal i/m == j/n
                        if (cij == 0) != (i * n == j * m):
                            violations.append((m, n, i, j, "zero", cij, swapped))
                if m != n:
                    continue
                # equal degrees: the index-only swap is the symmetry above
                for i in range(m + 1):
                    for j in range(m + 1):
                        if i == j or not (1 <= i + j <= m + n - 1):
                            continue
                        cij = structural_coefficient(m, n, i, j)
                        cji = structural_coefficient(m, n, j, i)
                        if cij + cji != 0:
                            violations.append((m, n, i, j, "sum", cij, cji))
                        if cij == 0:
                            violations.append((m, n, i, j, "nonzero", cij, cji))
        assert not violations, (
            f"{len(violations)} violations; first five: {violations[:5]}"
        )


def test_criterion_5_fixed_point_weight_consistency():
    with report(5, "fixed-point weights match the line-bundle weight pair for all d <= 12"):
        checked = 0
        for problem in all_admissible(12):
            m, n, a, b = problem.m, problem.n, problem.a, problem.b
            for i in range(m + 1):
                for j in range(n + 1):
                    for k in range(m + n - 1):
                        expected = WeightPair(
                            a * (2 * i - m),
                            -(2 * i - m) + (b - 1) * (2 * j - n) + (2 * k - (m + n - 2)),
                        )
                        assert fixed_point_weights(problem, i, j, k) == expected, (problem, i, j, k)
                        checked += 1
        assert checked > 0


def test_criterion_6_derived_oracles():
    with report(6, "line-case counts match twice the classical secant degrees"):
        secant_degrees = {3: 1, 4: 3, 5: 6}
        for d, secant in secant_degrees.items():
            got = degree_of_power_sum_locus(validate(1, 1, d, d))
            assert got == (d - 1) * (d - 2) == 2 * secant, (d, got)
        assert degree_of_power_sum_locus(validate(1, 1, 3, 3)) == 2


def test_criterion_7_nonnegativity():
    with report(7, "pushforward coefficients and all counts with d <= 40 are nonnegative"):
        for m in range(1, 13):
            for n in range(m, 13):
                if math.gcd(m, n) > 2:
                    continue
                cls = beta_pushforward(m, n)
                bad = {e: c for e, c in cls.terms.items() if c < 0}
                assert not bad, f"(m,n)=({m},{n}): negative coefficients {bad}"
        for problem in all_admissible(40):
            count = degree_of_power_sum_locus(problem)
            assert isinstance(count, int) and count >= 0, (problem, count)


def test_criterion_8_performance():
    with report(8, "count with m+n=31 under 10 s; table --max-d 30 under 60 s"):
        start = time.perf_counter()
        code, out, _ = run_cli("count", "--m", "10", "--n", "21", "--a", "21", "--b", "10")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert int(out.strip()) == degree_of_power_sum_locus(validate(10, 21, 21, 10))
        assert elapsed < 10.0, f"count took {elapsed:.2f}s"

        start = time.perf_counter()
        code, out, _ = run_cli("table", "--max-d", "30", "--csv")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(out.strip().splitlines()) == len(admissible_tuples(30)) + 1
        assert elapsed < 60.0, f"table took {elapsed:.2f}s"


def test_criterion_9_cli_contract():
    with report(9, "selftest exits 0; exit-code matrix and JSON schema hold"):
        code, out, _ = run_cli("selftest")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)

        assert run_cli("count", "--a", "3", "--b", "2")[0] == 1
        assert run_cli("count", "--m", "4", "--n", "8", "--a", "4", "--b", "2")[0] == 2
        assert run_cli("class", "--m", "3", "--n", "6")[0] == 2

        for argv in (
            ("count", "--m", "4", "--n", "6", "--a", "3", "--b", "2", "--json"),
            ("class", "--m", "2", "--n", "2", "--format", "json"),
            ("transvect", "--f", "1,0,0", "--g", "0,1", "--json"),
        ):
            code, out, _ = run_cli(*argv)
            assert code == 0
            envelope = json.loads(out)
            assert set(envelope) == {"command", "inputs", "result", "warnings"}
            assert json.dumps(envelope, sort_keys=True) == out.strip()

        code, out, _ = run_cli("count", "--d", "12", "--a", "3", "--b", "2", "--json")
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload == {"m": 4, "n": 6, "a": 3, "b": 2, "d": 12, "gcd": 2, "degree": "3762"}
