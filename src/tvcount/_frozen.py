"""The package's integer gate and the base class of its small immutable
value types.

``integer`` is the one rule by which every public function reads an integer
from its caller.  ``Frozen`` gives a slotted class what
``@dataclass(frozen=True)`` gave it, without importing ``dataclasses``
(which pulls in ``inspect``, ``ast`` and ``dis``) at every start of the
command-line tool.
"""

from __future__ import annotations


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

    A subclass sets each field once in ``__init__`` with
    ``object.__setattr__`` and returns their values, in ``__slots__`` order,
    from ``_fields``.  Instances then compare, hash, print and pickle as a
    frozen dataclass with the same fields does: equal only to instances of
    the same class, ``Name(field=value, ...)`` as repr, and assigning or
    deleting a field raises ``AttributeError``.  Unpickling calls the class
    with the field values, so ``__init__`` checks them again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        # spelled out per class: rings compare their specs on every product
        raise NotImplementedError

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
