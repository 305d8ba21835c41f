"""Equality, hashing, repr and immutability for the package's record types.

A record class lists its fields, in constructor order, in `_fields` and
writes its own `__init__`.  Two records are equal when they are of the same
class and their fields are equal; the repr reads `Name(field=value, ...)`.
A `Record` is mutable and unhashable.  A `FrozenRecord` hashes its fields
and refuses assignment, so its `__init__` (and any cache it keeps) writes
into `self.__dict__`, which `__setattr__` does not guard.

The classes are written out by hand, so that defining them generates no
code and imports nothing: a cold command-line call pays only for what it
runs.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__qualname__}")
