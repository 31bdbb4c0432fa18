"""Binary forms and the first transvectant: examples, exact identities, and
the structural coefficients of the transvectant in the binomial view."""

import hashlib
import importlib
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import tvcount
from tvcount import BinaryForm, forms, mul_form, pow_form, transvectant, transvectant_support

from .helpers import (
    basis_form,
    derivative_transvectant,
    far_denominators,
    rand_form,
    structural_coefficient,
    structural_support,
)
from .sympy_reference import sympy_transvectant


def x_power(e: int) -> BinaryForm:
    return BinaryForm(e, [1] + [0] * e)


def y_power(e: int) -> BinaryForm:
    return BinaryForm(e, [0] * e + [1])


# -- construction and views -----------------------------------------------------


def test_construction_validation():
    with pytest.raises(ValueError):
        BinaryForm(2, [1, 2])
    with pytest.raises(ValueError):
        BinaryForm(-1, [])
    zero = BinaryForm.zero(3)
    assert zero.is_zero and zero.degree == 3
    # Fraction() would spend seconds building a 10-million-digit power of ten
    for build, text in ((BinaryForm, "1e10000000"), (BinaryForm.from_binomial, "-2E-10000000")):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^decimal exponent of '{text}' exceeds "):
            build(1, [text, 1])
        assert time.perf_counter() - t0 < 1


def test_text_with_a_non_integer_exponent_gets_fractions_own_error():
    # the part after "e" is no exponent to bound, so Fraction reads the text
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: '1e1.5'$"):
        BinaryForm(1, ["1e1.5", 1])


def test_coefficients_parse_strings_and_fractions():
    f = BinaryForm(2, ["1", "1/2", Fraction(-3, 4)])
    assert f.coeffs == (Fraction(1), Fraction(1, 2), Fraction(-3, 4))
    third = Fraction(1, 3)
    assert BinaryForm(2, [third, 2, "3/4"]).coeffs[0] is third


def test_binomial_view_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        e = rng.randint(0, 6)
        f = rand_form(rng, e)
        g = BinaryForm.from_binomial(e, f.binomial_coefficients())
        assert g == f
        assert BinaryForm(e, f.coeffs).binomial_coefficients() == f.binomial_coefficients()


def test_binomial_view_weights():
    f = BinaryForm.from_binomial(3, [1, 1, 0, 0])
    assert f.coeffs == (Fraction(1), Fraction(3), Fraction(0), Fraction(0))


# -- rendering ------------------------------------------------------------------


@pytest.mark.parametrize(
    "degree, coeffs, text",
    [
        (3, [0, 0, 0, 0], "0"),
        (0, [5], "5"),
        (0, [-1], "-1"),
        (0, ["-2/3"], "-2/3"),
        (2, [1, -1, 1], "x^2 - x*y + y^2"),
        (3, [-1, 0, 0, 1], "-x^3 + y^3"),
        (2, ["1/2", "-3/4", 2], "1/2*x^2 - 3/4*x*y + 2*y^2"),
        # vanishing leading coefficients: the formal degree stays in repr
        (3, [0, 0, -1, "5/3"], "-x*y^2 + 5/3*y^3"),
        (1, [0, -1], "-y"),
        (4, [0, 0, 0, 0, 7], "7*y^4"),
    ],
)
def test_form_str_and_repr(degree, coeffs, text):
    form = BinaryForm(degree, coeffs)
    assert str(form) == text
    assert repr(form) == f"BinaryForm(degree={degree}, {text!r})"


# sha256 of str and repr of 360 seeded forms of degree 0 to 8, one line each
SEEDED_FORMS_SHA256 = "fa8761d5cdf847f173877f3ac7c2260144df73f0489595abc25500de4fe91a5f"


def test_seeded_form_rendering_is_pinned():
    rng = random.Random(2026)
    lines = []
    for degree in range(9):
        for _ in range(40):
            coeffs = [rng.choice((0, 0, 1, -1, Fraction(rng.randint(-99, 99), rng.randint(1, 12)))) for _ in range(degree + 1)]
            form = BinaryForm(degree, coeffs)
            lines.append(f"{form}\t{form!r}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEEDED_FORMS_SHA256


# -- products and powers ---------------------------------------------------------


def test_product_examples():
    x_plus_y = BinaryForm(1, [1, 1])
    assert pow_form(x_plus_y, 2) == BinaryForm(2, [1, 2, 1])
    assert pow_form(x_plus_y, 1) == x_plus_y
    assert pow_form(x_plus_y, 0) == BinaryForm(0, [1])
    assert mul_form(x_power(1), y_power(1)) == BinaryForm(2, [0, 1, 0])


def test_add_requires_equal_degree():
    with pytest.raises(ValueError):
        BinaryForm(1, [1, 0]) + BinaryForm(2, [1, 0, 0])


def test_form_plus_or_minus_a_scalar_is_a_type_error():
    f = BinaryForm(1, [1, 1])
    with pytest.raises(TypeError):
        f + 1
    with pytest.raises(TypeError):
        f - 1


@pytest.mark.parametrize("derivative", [BinaryForm.dx, BinaryForm.dy])
def test_derivative_of_a_degree_zero_form_raises(derivative):
    with pytest.raises(ValueError, match="^derivative of a degree-0 form is not a binary form$"):
        derivative(BinaryForm(0, [5]))


# -- transvectant examples --------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2), (4, 4), (1, 5)])
def test_transvectant_of_pure_powers(m, n):
    t = transvectant(x_power(m), y_power(n))
    expected = BinaryForm(m + n - 2, [0] * (n - 1) + [m * n] + [0] * (m - 1))
    assert t == expected


def test_transvectant_of_equal_forms_vanishes():
    rng = random.Random(9)
    for e in (1, 2, 3, 5):
        f = rand_form(rng, e)
        assert transvectant(f, f).is_zero


def test_transvectant_hand_example():
    f = BinaryForm(2, [1, 0, 0])
    g = BinaryForm(2, [0, 1, 0])
    assert transvectant(f, g) == BinaryForm(2, [2, 0, 0])


def test_transvectant_degree_two_output_is_constant():
    assert transvectant(x_power(1), y_power(1)) == BinaryForm(0, [1])


def test_transvectant_rejects_degree_zero():
    const = BinaryForm(0, [1])
    with pytest.raises(ValueError, match="below degree 1"):
        transvectant(const, x_power(2))
    with pytest.raises(ValueError, match="below degree 1"):
        transvectant(x_power(2), const)


def test_transvectant_of_zero_form():
    t = transvectant(BinaryForm.zero(2), rand_form(random.Random(1), 3))
    assert t.is_zero and t.degree == 3


def test_transvectant_matches_sympy():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        f, g = rand_form(rng, m), rand_form(rng, n)
        t = transvectant(f, g)
        assert list(t.coeffs) == sympy_transvectant(f.coeffs, g.coeffs)


@pytest.mark.parametrize("k", [75, 100])
def test_transvectant_over_its_work_bound_is_refused_quickly(k):
    # unbounded, k = 75 takes 2 s and k = 100 about 9 s
    f, g = BinaryForm(k - 1, far_denominators(1, k)), BinaryForm(k - 1, far_denominators(2, k))
    degrees = re.escape(f"(m,n)=({k - 1},{k - 1}) takes (m+1)(n+1)*")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"^the transvectant of forms of degrees {degrees}") as caught:
        transvectant(f, g)
    assert time.perf_counter() - t0 < 1
    assert "\n" not in str(caught.value) and f"more than the {forms.MAX_TRANSVECT_WORK} it computes" in str(caught.value)


def primes_above(low: int, count: int) -> list[int]:
    sieve = bytearray([1]) * (3 * low)
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return [p for p in range(low + 1, len(sieve)) if sieve[p]][:count]


def test_transvectant_with_a_long_denominator_and_small_result_is_computed():
    # the common denominator of f has about 4160 digits, yet {f, x} = -f_y
    # has denominators of at most 15 bits: the bound is on the work, not on
    # the denominator
    primes = primes_above(10**4, 1000)
    assert len(primes) == 1000
    f = BinaryForm(999, [Fraction(1, p) for p in primes])
    t = transvectant(f, x_power(1))
    assert t == -f.dy()
    assert max(c.denominator for c in t.coeffs).bit_length() == 15


def test_transvectant_at_its_work_bound_is_computed(monkeypatch):
    # (m+1)(n+1)(bits(lf) + bits(lg)) for f = x + y/2^k and g = x is
    # 4 * (k + 2), counted at 4 * 100 or more
    monkeypatch.setattr(forms, "MAX_TRANSVECT_WORK", 4 * (200 + 2))
    assert transvectant(BinaryForm(1, [1, Fraction(1, 2**200)]), x_power(1)) == BinaryForm(0, [Fraction(-1, 2**200)])
    with pytest.raises(ValueError, match="= 812 bit-products, more than the 808 it computes$"):
        transvectant(BinaryForm(1, [1, Fraction(1, 2**201)]), x_power(1))
    # k = 10 has 12 bits, below the floor: counted at 100 a product
    monkeypatch.setattr(forms, "MAX_TRANSVECT_WORK", 4 * 100 - 1)
    with pytest.raises(ValueError, match=re.escape("(m+1)(n+1)*100 = 400 bit-products, more than the 399 it computes")):
        transvectant(BinaryForm(1, [1, Fraction(1, 2**10)]), x_power(1))


@pytest.mark.parametrize("m, n", [(1000, 999), (6999, 6999)])
def test_transvectant_of_integer_forms_over_a_million_products_is_refused_quickly(m, n):
    # each product counts at 100 bit-products however small its factors:
    # unbounded, two forms of 7000 ones take 10 s
    f, g = BinaryForm(m, [1] * (m + 1)), BinaryForm(n, [1] * (n + 1))
    work = re.escape(f"takes (m+1)(n+1)*100 = {(m + 1) * (n + 1) * 100} bit-products")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=work):
        transvectant(f, g)
    assert time.perf_counter() - t0 < 1


def test_transvectant_of_forms_with_long_numerators_is_refused_quickly():
    # a form counts at its longest numerator when that is longer than its
    # common denominator: unbounded, two forms of 200 coefficients 10^4000
    # (13 288 bits each) take about 7 s
    huge = BinaryForm(199, ["1e4000"] * 200)
    work = 200 * 200 * 2 * (10**4000).bit_length()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"(m,n)=(199,199) takes (m+1)(n+1)*26576 = {work} bit-products")):
        transvectant(huge, huge)
    assert time.perf_counter() - t0 < 1


def test_transvectant_of_a_million_products_of_ones_is_computed():
    ones = BinaryForm(999, [1] * 1000)
    assert transvectant(ones, ones) == BinaryForm.zero(1996)


def _oracle_coefficient(rng: random.Random) -> Fraction:
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:  # small, either sign
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 2:  # large denominator
        return Fraction(rng.randint(-(10 ** 30), 10 ** 30), rng.randint(1, 10 ** 40))
    return Fraction(-rng.randint(1, 10 ** 12), rng.choice((1, 2 ** 61 - 1, 3 ** 50)))


def _oracle_form(rng: random.Random, degree: int) -> BinaryForm:
    shape = rng.randrange(4)
    if shape == 0:
        return BinaryForm.zero(degree)
    coeffs = [_oracle_coefficient(rng) for _ in range(degree + 1)]
    if shape == 1:  # vanishing leading coefficients
        k = rng.randint(1, degree)
        coeffs[:k] = [Fraction(0)] * k
    return BinaryForm(degree, coeffs)


def test_transvectant_matches_derivative_route():
    # the integer kernel against f_x*g_y - f_y*g_x in Fraction arithmetic
    rng = random.Random(5)
    degrees = [(1, 1), (1, 60), (60, 1), (60, 60)] + [(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(60)]
    for m, n in degrees:
        f, g = _oracle_form(rng, m), _oracle_form(rng, n)
        got, want = transvectant(f, g), derivative_transvectant(f, g)
        assert got.degree == want.degree == m + n - 2
        assert got.coeffs == want.coeffs, (m, n)
        assert [str(c) for c in got.coeffs] == [str(c) for c in want.coeffs]
        assert all(type(c) is Fraction for c in got.coeffs)


# -- package exports --------------------------------------------------------------


PUBLIC_NAMES = [
    "BinaryForm",
    "PowerSumProblem",
    "RingSpec",
    "TruncatedPolynomial",
    "WeightPair",
    "admissible_tuples",
    "alpha_classes",
    "ambient_spec",
    "beta_pushforward",
    "blowup_class_S",
    "degree_of_power_sum_locus",
    "fixed_point_weights",
    "gamma_class",
    "geometric_inverse",
    "integrate_chern_polynomial",
    "mul_form",
    "pow_form",
    "transvectant",
    "transvectant_support",
    "validate",
    "__version__",
]


def test_package_exposes_every_name_in_all():
    assert tvcount.__all__ == PUBLIC_NAMES
    # the modules whose names the package loads on first access
    assert sorted(tvcount._NAMES) == ["counting", "cycles", "forms", "ring"]
    assert tvcount.transvectant is forms.transvectant
    assert set(tvcount.__all__) <= set(dir(tvcount))
    namespace: dict = {}
    exec("from tvcount import *", namespace)
    assert all(name in namespace for name in tvcount.__all__)
    assert namespace["BinaryForm"] is forms.BinaryForm
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        tvcount.nonexistent


@pytest.mark.parametrize(
    "module, names",
    [
        (
            "counting",
            [
                "WeightPair",
                "admissible_tuples",
                "degree_of_power_sum_locus",
                "fixed_point_weights",
                "integrate_chern_polynomial",
                "validate",
            ],
        ),
        (
            "cycles",
            ["PowerSumProblem", "alpha_classes", "ambient_spec", "beta_pushforward", "blowup_class_S", "gamma_class"],
        ),
        ("ring", ["RingSpec", "TruncatedPolynomial", "geometric_inverse"]),
        ("forms", ["BinaryForm", "mul_form", "pow_form", "transvectant", "transvectant_support"]),
    ],
)
def test_star_import_binds_exactly_the_module_all(module, names):
    # chern_roots, gcd2_excess and the imports stay module-level names only
    mod = importlib.import_module(f"tvcount.{module}")
    assert mod.__all__ == names
    # the package's name map, which it reads without importing the module
    assert list(tvcount._NAMES[module]) == names
    namespace: dict = {}
    exec(f"from tvcount.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
    assert all(getattr(tvcount, name) is value for name, value in namespace.items())
    assert {"chern_roots", "gcd2_excess", "math"}.isdisjoint(namespace)


def test_a_bare_import_loads_no_module_and_keeps_the_surface():
    # in a fresh process: the names and the submodules load on first access
    code = """import sys
import tvcount
print(sorted(m for m in sys.modules if m.startswith("tvcount.")))
print(tvcount.ring is sys.modules["tvcount.ring"], tvcount.counting is sys.modules["tvcount.counting"])
print(sorted((set(tvcount.__all__) | {"counting", "cycles", "forms", "ring"}) - set(dir(tvcount))))
namespace = {}
exec("from tvcount import *", namespace)
del namespace["__builtins__"]
print(sorted(namespace) == sorted(tvcount.__all__))
print([n for n, v in namespace.items() if n != "__version__" and v is not getattr(sys.modules[v.__module__], n)])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tvcount.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True", "[]", "True", "[]"]


# -- exact identities (spot checks; the full randomized suite runs in acceptance) --


def test_bilinearity_spot():
    rng = random.Random(21)
    for _ in range(10):
        e, eg = rng.randint(1, 4), rng.randint(1, 4)
        f1, f2, g = rand_form(rng, e), rand_form(rng, e), rand_form(rng, eg)
        a, b = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert transvectant(a * f1 + b * f2, g) == a * transvectant(f1, g) + b * transvectant(f2, g)


def test_antisymmetry_spot():
    rng = random.Random(22)
    for _ in range(10):
        e = rng.randint(1, 5)
        f, g = rand_form(rng, e), rand_form(rng, e)
        assert transvectant(f, g) == -transvectant(g, f)


def test_power_rule_spot():
    rng = random.Random(25)
    f, g = rand_form(rng, 3, zero_ok=False), rand_form(rng, 2, zero_ok=False)
    k, l = 3, 2
    lhs = transvectant(pow_form(f, k), pow_form(g, l))
    rhs = (k * l) * mul_form(mul_form(pow_form(f, k - 1), pow_form(g, l - 1)), transvectant(f, g))
    assert lhs == rhs


def test_common_power_vanishing_spot():
    rng = random.Random(26)
    h = rand_form(rng, 2, zero_ok=False)
    assert transvectant(pow_form(h, 2), pow_form(h, 3)).is_zero
    assert transvectant(3 * pow_form(h, 1), Fraction(-1, 2) * pow_form(h, 2)).is_zero


# -- transvectant_support ------------------------------------------------------------


def test_support_examples():
    assert transvectant_support(1, 1, 0) == {(0, 1), (1, 0)}
    assert transvectant_support(2, 1, 1) == {(1, 1), (2, 0)}
    assert transvectant_support(2, 3, 3) == {(1, 3), (2, 2)}


def test_support_range_errors():
    with pytest.raises(ValueError):
        transvectant_support(2, 3, 4)
    with pytest.raises(ValueError):
        transvectant_support(2, 3, -1)
    with pytest.raises(ValueError):
        transvectant_support(0, 3, 0)


def test_support_contains_every_contributing_pair():
    for m in range(1, 5):
        for n in range(1, 5):
            for k in range(m + n - 1):
                support = transvectant_support(m, n, k)
                for i in range(m + 1):
                    for j in range(n + 1):
                        if i + j != k + 1:
                            continue
                        assert (i, j) in support
                        if structural_coefficient(m, n, i, j) != 0:
                            assert structural_support(m, n, i, j) == {k}


# -- structural coefficients in the binomial view -------------------------------------


def test_structural_coefficient_closed_form():
    # cross-checked against sympy expansion; the transvectant contributes
    # C(m,i) C(n,j) (m j - i n) on the basis pair (i, j), to t_(i+j-1) only
    for m in range(1, 6):
        for n in range(1, 6):
            for i in range(m + 1):
                for j in range(n + 1):
                    if i + j < 1 or i + j > m + n - 1:
                        continue
                    expected = comb(m, i) * comb(n, j) * (m * j - i * n)
                    assert structural_coefficient(m, n, i, j) == expected
                    f, g = basis_form(m, i), basis_form(n, j)
                    assert sympy_transvectant(f.coeffs, g.coeffs) == [
                        expected if k == i + j - 1 else 0 for k in range(m + n - 1)
                    ], (m, n, i, j)


def test_structural_pairs_antisymmetric_when_degrees_match():
    for m in range(1, 7):
        for i in range(m + 1):
            for j in range(m + 1):
                if i == j or i + j < 1 or i + j > 2 * m - 1:
                    continue
                cij = structural_coefficient(m, m, i, j)
                cji = structural_coefficient(m, m, j, i)
                assert cij + cji == 0
                assert cij != 0


def test_structural_diagonal_vanishes_when_degrees_match():
    # observed regularity: the diagonal coefficient is 0 for m == n and can
    # be nonzero otherwise (e.g. m=2, n=4, i=1)
    for m in range(1, 7):
        for i in range(1, m + 1):
            if 1 <= 2 * i - 1 <= 2 * m - 2:
                assert structural_coefficient(m, m, i, i) == 0
    assert structural_coefficient(2, 4, 1, 1) != 0
