"""The one integer rule: every public function and constructor that takes an
integer from its caller reads it through the same gate.  Integral values
such as 3.0 give the same result as 3; bools, non-integral values and
strings raise ValueError naming the argument."""

import re

import pytest

from tvcount import (
    BinaryForm,
    PowerSumProblem,
    RingSpec,
    TruncatedPolynomial,
    WeightPair,
    admissible_tuples,
    ambient_spec,
    beta_pushforward,
    blowup_class_S,
    fixed_point_weights,
    geometric_inverse,
    integrate_chern_polynomial,
    transvectant_support,
    validate,
)

SPEC = RingSpec((3, 3))
Z1, Z2 = SPEC.variables()
POLY = (1 + Z1 + 2 * Z2) ** 3
PROBLEM = validate(2, 3, 3, 2)

# (id, call taking the value under test, name the error gives, integral value
# the site accepts); each call feeds its value to exactly one argument
SITES = [
    ("RingSpec caps", lambda v: RingSpec((2, v)), "caps", 3.0),
    ("monomial exponents", lambda v: SPEC.monomial((v, 0)), "exponents", 3.0),
    ("monomial coeff", lambda v: SPEC.monomial((1, 0), v), "coeff", 3.0),
    ("TruncatedPolynomial exponents", lambda v: TruncatedPolynomial(SPEC, {(v, 0): 1}), "exponents", 3.0),
    ("TruncatedPolynomial coeff", lambda v: TruncatedPolynomial(SPEC, {(1, 0): v}), "coeff", 3.0),
    ("coefficient", lambda v: POLY.coefficient((v, 0)), "exponents", 3.0),
    ("homogeneous_part", lambda v: POLY.homogeneous_part(v), "degree", 3.0),
    ("TruncatedPolynomial pow", lambda v: (Z1 + Z2) ** v, "exponent", 3.0),
    ("geometric_inverse", lambda v: geometric_inverse(Z1 - Z2, up_to_degree=v), "up_to_degree", 3.0),
    ("blowup_class_S", lambda v: blowup_class_S(v), "r", 3.0),
    ("beta_pushforward m", lambda v: beta_pushforward(v, 4), "m", 3.0),
    ("beta_pushforward n", lambda v: beta_pushforward(2, v), "n", 3.0),
    ("fixed_point_weights i", lambda v: fixed_point_weights(PROBLEM, v, 0, 0), "i", 1.0),
    ("fixed_point_weights j", lambda v: fixed_point_weights(PROBLEM, 0, v, 0), "j", 3.0),
    ("fixed_point_weights k", lambda v: fixed_point_weights(PROBLEM, 0, 0, v), "k", 3.0),
    ("WeightPair w1", lambda v: WeightPair(v, 0), "w1", 3.0),
    ("WeightPair w2", lambda v: WeightPair(0, v), "w2", 3.0),
    ("admissible_tuples", lambda v: admissible_tuples(v), "max_d", 3.0),
    ("validate", lambda v: validate(2, v, 3, 2), "n", 3.0),
    # each gives the problem (2, 3, 3, 2), swapped where m is 3
    ("PowerSumProblem m", lambda v: PowerSumProblem(v, 2, 2, 3), "m", 3.0),
    ("PowerSumProblem n", lambda v: PowerSumProblem(2, v, 3, 2), "n", 3.0),
    ("PowerSumProblem a", lambda v: PowerSumProblem(2, 3, v, 2), "a", 3.0),
    ("PowerSumProblem b", lambda v: PowerSumProblem(3, 2, 2, v), "b", 3.0),
    ("BinaryForm", lambda v: BinaryForm(v, [1, 2, 3, 4]), "degree", 3.0),
    ("BinaryForm.zero", lambda v: BinaryForm.zero(v), "degree", 3.0),
    ("from_binomial", lambda v: BinaryForm.from_binomial(v, [1, 2, 3, 4]), "degree", 3.0),
    ("BinaryForm pow", lambda v: BinaryForm(1, [1, 1]) ** v, "k", 3.0),
    ("transvectant_support m", lambda v: transvectant_support(v, 2, 1), "m", 3.0),
    ("transvectant_support n", lambda v: transvectant_support(2, v, 1), "n", 3.0),
    ("transvectant_support k", lambda v: transvectant_support(2, 3, v), "k", 3.0),
    ("integrate_chern_polynomial", lambda v: integrate_chern_polynomial(PROBLEM, [(v, 5, 0)]), "term", 3.0),
    ("ambient_spec m", lambda v: ambient_spec(v, 4), "m", 3.0),
    ("ambient_spec n", lambda v: ambient_spec(2, v), "n", 3.0),
    # a polynomial's scalar operand is a coefficient; -True would be an int
    ("TruncatedPolynomial mul", lambda v: POLY * v, "coeff", 3.0),
    ("TruncatedPolynomial rmul", lambda v: v * POLY, "coeff", 3.0),
    ("TruncatedPolynomial add", lambda v: POLY + v, "coeff", 3.0),
    ("TruncatedPolynomial sub", lambda v: POLY - v, "coeff", 3.0),
    ("TruncatedPolynomial rsub", lambda v: v - POLY, "coeff", 3.0),
    ("BinaryForm mul", lambda v: BinaryForm(1, [1, 2]) * v, "scalar", 3.0),
    ("BinaryForm rmul", lambda v: v * BinaryForm(1, [1, 2]), "scalar", 3.0),
]


@pytest.mark.parametrize("call, name", [pytest.param(site[1], site[2], id=site[0]) for site in SITES])
@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=repr)
def test_site_rejects_non_integers(call, name, bad):
    # the Chern integral keeps its own message, which names the term
    if name == "term":
        message = "must be integers: term"
    else:
        message = f"^{name} must be an? [a-z ]*integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("call, integral", [pytest.param(site[1], site[3], id=site[0]) for site in SITES])
def test_site_takes_integral_values(call, integral):
    assert call(integral) == call(int(integral))


def test_ambient_spec_gates_before_its_cache():
    # True == 1 and hashes as 1: past the gate, it would find the cached (1, 3)
    assert ambient_spec(1, 3) is ambient_spec(1, 3)
    for bad in (True, 2.5, "3"):
        with pytest.raises(ValueError, match=f"^m must be a positive integer, got {re.escape(repr(bad))}$"):
            ambient_spec(bad, 3)
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {re.escape(repr(bad))}$"):
            ambient_spec(1, bad)
    assert ambient_spec(3.0, 5) is ambient_spec(3, 5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RingSpec((2, -1)), "caps must be a nonnegative integer, got -1"),
        (lambda: SPEC.monomial((1, -1)), "exponents must be a nonnegative integer, got -1"),
        (lambda: Z1 ** -1, "exponent must be a nonnegative integer, got -1"),
        (lambda: blowup_class_S(0), "r must be a positive integer, got 0"),
        (lambda: beta_pushforward(0, 2), "m must be a positive integer, got 0"),
        (lambda: ambient_spec(0, 2), "m must be a positive integer, got 0"),
        (lambda: ambient_spec(2, 0), "n must be a positive integer, got 0"),
        (lambda: fixed_point_weights(PROBLEM, -1, 0, 0), "i must be a nonnegative integer, got -1"),
        (lambda: admissible_tuples(-1), "max_d must be a nonnegative integer, got -1"),
        (lambda: BinaryForm(-1, []), "degree must be a nonnegative integer, got -1"),
        (lambda: transvectant_support(0, 3, 0), "m must be a positive integer, got 0"),
    ],
)
def test_site_rejects_values_below_its_bound(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()

