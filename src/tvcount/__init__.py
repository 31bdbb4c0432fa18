"""Exact counts for binary forms expressible as f^a + g^b.

The degree of the closure of the f^a + g^b locus in the space of degree-d
binary forms is computed as an intersection product in the integral Chow
ring of P^m x P^n x P^(m+n-2), with everything carried out in exact
arbitrary-precision arithmetic.  A symbolic first-transvectant engine over
exact rationals backs the validation suites.

Importing the package loads none of its modules: each public name, and each
of the modules counting, cycles, ring and forms, loads its module on first
access (PEP 562).  So a process compiles only the engine it runs, and a count
never imports ``fractions``.
"""

import importlib

__version__ = "0.1.0"

# each module's public names, as its __all__ lists them
_NAMES = {
    "counting": (
        "WeightPair",
        "admissible_tuples",
        "degree_of_power_sum_locus",
        "fixed_point_weights",
        "integrate_chern_polynomial",
        "validate",
    ),
    "cycles": ("PowerSumProblem", "alpha_classes", "ambient_spec", "beta_pushforward", "blowup_class_S", "gamma_class"),
    "ring": ("RingSpec", "TruncatedPolynomial", "geometric_inverse"),
    "forms": ("BinaryForm", "mul_form", "pow_form", "transvectant", "transvectant_support"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    # nothing is cached: each lookup reads the name from its module, so a
    # name replaced there (a wrapper, a test's patch) is what the package
    # gives.  The import system makes a loaded submodule a package global,
    # so a lookup imports nothing once its module is loaded
    module = _HOME.get(name)
    if module is not None:
        return getattr(globals().get(module) or importlib.import_module(f"{__name__}.{module}"), name)
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
