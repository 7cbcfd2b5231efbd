"""Immutable records: the base class of every value type in the package.

A subclass names its fields in `__slots__`, in constructor order, and gets
positional or keyword construction, value equality and hashing over those
fields (between instances of one class only), a field-by-field repr, and
immutability: assigning or deleting an attribute raises AttributeError.  A
subclass that validates or normalises its input writes its own `__init__`
and stores each field once through `_set`; hot value types also write their
own `__eq__` and `__hash__`.

The classes are written out, not generated by a class decorator: generating
them execs new methods for every class when its module is imported, and the
generator's module loads `inspect`, `ast` and `dis`.  That was most of the
package's import time, paid by every command (README, "Conventions worth
knowing").
"""

from __future__ import annotations

_set = object.__setattr__


def _restore(cls, values: tuple):
    """Unpickling and copying: a record of cls with these field values, set
    without running its __init__ again."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(record, name, value)
    return record


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}"
            )
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected fields {sorted(kwargs)}"
            )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
