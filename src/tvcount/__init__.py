"""Exact counts for binary forms expressible as f^a + g^b.

The degree of the closure of the f^a + g^b locus in the space of degree-d
binary forms is computed as an intersection product in the integral Chow
ring of P^m x P^n x P^(m+n-2), with everything carried out in exact
arbitrary-precision arithmetic.  A symbolic first-transvectant engine over
exact rationals backs the validation suites; its names load on first use
(PEP 562), so a count never imports ``fractions``.
"""

from . import counting, cycles, ring
from .counting import *  # noqa: F403
from .cycles import *  # noqa: F403
from .ring import *  # noqa: F403

__version__ = "0.1.0"

# the forms engine, loaded on first access
_FORMS_NAMES = ("BinaryForm", "mul_form", "pow_form", "transvectant", "transvectant_support")

__all__ = sorted([*counting.__all__, *cycles.__all__, *ring.__all__, *_FORMS_NAMES]) + ["__version__"]


def __getattr__(name: str):
    if name in _FORMS_NAMES:
        from . import forms

        return getattr(forms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
