"""The package's integer gate and digit limit, the base class of its small
immutable value types, and the one printer of a sum of monomials.

``integer`` is the one rule by which every public function reads an integer
from its caller.  ``max_digits`` is the longest decimal exponent a form's
coefficient may have, and ``str_digits_limit`` the longest int ``str()``
prints.  ``Frozen`` gives a slotted class what
``@dataclass(frozen=True)`` gave it, without importing ``dataclasses``
(which pulls in ``inspect``, ``ast`` and ``dis``) at every start of the
command-line tool.  A subclass's fields are its ``__slots__``.
``render_terms`` prints binary forms and Chow-ring classes alike, as text
or as LaTeX.
"""

import sys

# CPython's default for the longest int str() may print
DEFAULT_MAX_DIGITS = 4300


def str_digits_limit() -> int:
    """The interpreter's limit on str(int) (Python 3.11 and 3.10.7+); 0
    where it is unlimited or absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def max_digits() -> int:
    """str_digits_limit(), or DEFAULT_MAX_DIGITS where str(int) is
    unlimited: it still bounds the decimal exponents of form coefficients."""
    return str_digits_limit() or DEFAULT_MAX_DIGITS


def integral(value) -> int | None:
    """``value`` as an exact int if it is integral and not a bool, else
    None: 3 and 3.0 pass; True, 2.5 and "3" do not."""
    if value.__class__ is int:
        return value
    if isinstance(value, bool):
        return None
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


_KINDS = {1: "a positive", 0: "a nonnegative", None: "an"}


def integer(name: str, value, low: int | None = 0) -> int:
    """``value`` as an exact int no smaller than ``low``: 1, 0 or None for
    no bound.  Integral values such as 3.0 pass; bools, non-integral values,
    strings and values below ``low`` raise ValueError naming ``name``."""
    as_int = value if value.__class__ is int else integral(value)
    if as_int is None or low is not None and as_int < low:
        raise ValueError(f"{name} must be {_KINDS[low]} integer, got {value!r}")
    return as_int


class Frozen:
    """Immutable value whose fields are the subclass's ``__slots__``.

    A subclass lists its fields once, as ``__slots__``, and sets each in
    ``__init__`` with ``object.__setattr__``; ``_fields`` reads them in that
    order.  Instances then compare, hash, print and pickle as a frozen
    dataclass with the same fields does: equal only to instances of
    the same class, ``Name(field=value, ...)`` as repr, and assigning or
    deleting a field raises ``AttributeError``.  Unpickling calls the class
    with the field values, so ``__init__`` checks them again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._fields())


def render_terms(terms, names: tuple[str, ...], mul: str, power) -> str:
    """A sum of monomials as text: ``terms`` are (exponents, coefficient)
    pairs with nonzero coefficients, in print order; ``names`` are the
    variables, ``mul`` joins a term's factors and ``power(name, e)`` writes
    one factor.  A coefficient of 1 or -1 shows only as a sign unless the term
    is constant, and the empty sum is "0"."""
    parts = []
    for exps, coeff in terms:
        factors = [power(names[i], e) for i, e in enumerate(exps) if e]
        mag = abs(coeff)
        body = mul.join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not parts:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"
