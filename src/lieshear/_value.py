"""The base of the package's immutable values: forms, vectors, Lie algebras,
and the reports, search specs and shear data built from them.

A subclass names its compared fields in `_fields`, in constructor order,
and sets them with object.__setattr__, through __dict__ or, on a slotted
class, through the setters `slot_setters` returns, as __setattr__
refuses.  Not every attribute is a field: a KForm leaves out its degree,
so a zero form has a degree in name only, and a LieAlgebra its caches.
Instances of one class are equal when those fields are; an instance of
any other class, a subclass included, is not, and the hash is that of the
field tuple, so a value holding a dict is unhashable (KForm hashes its
terms itself).  Assignment and deletion raise AttributeError; copies and
unpickled values are filled by __setstate__.  The repr is `Name(field=...)`
over the fields not in `_hidden`.  Defining a subclass generates no code.
`__slots__ = ()` keeps the slotted KForm, Vector, LieAlgebra, ShearData,
ShearReport and SearchHit without an instance dict: the s5 reference
search builds a ShearData per hit and keeps 1,545 hits, each with its F0,
report and algebra.  A slot need not be a field (ShearData's f_eff).

A subclass defines its own __init__ only for defaults or checks, or for
speed where a search builds one per hit: `SearchHit` and `ShearReport`
keep hand-written ones, and `ShearData._trusted` skips the checks; they
fill their slots through `slot_setters`.  With keywords SearchHit and
ShearReport take 0.5 and 0.9 us per call against 1.8 and 2.9 us through
`Value.__init__`, where the s5 reference search spends about 11 us per
hit (CPython 3.11, a 2-CPU Xeon host).
"""
from __future__ import annotations


class Value:
    __slots__ = ()
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
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        """Restore a copy or an unpickled value: object.__getstate__ gives the
        __dict__, or (__dict__ or None, slots) for a class with slots."""
        attrs, slots = state if type(state) is tuple else (state, None)
        for name, value in {**(attrs or {}), **(slots or {})}.items():
            object.__setattr__(self, name, value)


def slot_setters(cls: type) -> tuple:
    """The setter of each slot of `cls`, in `__slots__` order: they fill a
    slotted value, which Value.__setattr__ refuses, without the lookup by
    name of object.__setattr__."""
    return tuple([getattr(cls, name).__set__ for name in cls.__slots__])
