"""The base of the package's immutable value classes: reports, search specs and shear data.

A subclass names its compared fields in `_fields`, in constructor order,
and sets them with object.__setattr__ or through __dict__, as its own
__setattr__ refuses.  Instances of one class are equal
when those fields are; an instance of any other class is not, and the hash
is that of the field tuple, so a value holding a dict is unhashable.
Assignment and deletion raise AttributeError.  The repr is `Name(field=...)`
over the fields not in `_hidden`.  Defining a subclass generates no code.

A subclass defines its own __init__ only for defaults or checks, or for
speed where a search builds one per hit: `SearchHit` and `ShearReport`
keep hand-written ones.  With keywords they take 1.0 and 1.4 us per call
against 2.8 and 4.3 us through `Value.__init__`, where the s5 reference
search spends about 18 us per hit (CPython 3.11, a 2-CPU Xeon host).
"""
from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()  # compared, but left out of the repr

    def __init__(self, *args, **kwargs):
        """Every field, by position or by keyword and without defaults; a
        class with defaults, checks or a per-hit cost defines its own."""
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {', '.join(names)}")
        set_field = object.__setattr__
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name, value in kwargs.items():
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
