"""A small base for the package's immutable value types.

Each subclass names its fields in ``_fields`` and writes its own
``__init__``, which stores them with ``object.__setattr__``.  The base
then compares, hashes and prints instances by those fields: equal when
the class is the same and the field tuples are equal, hashed as the field
tuple, shown as ``Name(field=value, ...)``.  Instances refuse assignment
and deletion, and pickle and copy by calling the class on their fields.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
