"""Exact counts for binary forms expressible as f^a + g^b.

The degree of the closure of the f^a + g^b locus in the space of degree-d
binary forms is computed as an intersection product in the integral Chow
ring of P^m x P^n x P^(m+n-2), with everything carried out in exact
arbitrary-precision arithmetic.  A symbolic first-transvectant engine over
exact rationals backs the validation suites; its names load on first use
(PEP 562), so a count never imports ``fractions``.
"""

from .counting import (
    WeightPair,
    admissible_tuples,
    degree_of_power_sum_locus,
    fixed_point_weights,
    integrate_chern_polynomial,
    validate,
)
from .cycles import (
    PowerSumProblem,
    alpha_classes,
    ambient_spec,
    beta_pushforward,
    blowup_class_S,
    gamma_class,
)
from .ring import RingSpec, TruncatedPolynomial, geometric_inverse

__version__ = "0.1.0"

__all__ = [
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

# the forms engine, loaded on first access
_FORMS_NAMES = ("BinaryForm", "mul_form", "pow_form", "transvectant", "transvectant_support")


def __getattr__(name: str):
    if name in _FORMS_NAMES:
        from . import forms

        return getattr(forms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
