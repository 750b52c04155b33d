"""Immutable records: plain __slots__ classes with field-wise ==, hash and repr."""

from __future__ import annotations

_set = object.__setattr__  # how a record's __init__ sets each of its fields, once


class Record:
    """A base for immutable records whose __slots__ name their fields, in order.

    Records of one class are equal when their fields are; the hash is the
    fields' (TypeError if one is unhashable), and the repr is
    Name(field=value, ...).  Setting or deleting an attribute raises.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return type(self), self._values()
