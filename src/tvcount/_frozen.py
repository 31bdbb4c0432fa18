"""Base class for the package's small immutable value types.

It gives a slotted class what ``@dataclass(frozen=True)`` gave it, without
importing ``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``)
at every start of the command-line tool.
"""

from __future__ import annotations


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
