"""Immutable value records: the equality, hash, repr and read-only
attributes that the package's data classes share.

A record class names its fields, in order, in ``_fields``, and stores each
one once in its own ``__init__`` through ``set_field``: that is
``object.__setattr__`` bound to one module-level name, so a store pays no
attribute lookup.  A class with no cached value also declares the fields
as its ``__slots__``.  When the class is made, Record reads that tuple.
Equality holds only between instances of one class and compares the
fields as one tuple, or a lone field as itself; that key is also what is
hashed.  The repr is ``Name(field=value, ...)`` in field order.  A value
that a record derives from its fields (a slot or cached attribute outside
``_fields``) takes no part in any of the three.  Assigning or deleting an
attribute raises AttributeError.  No code is generated.  The module also
owns the package's one compute-once descriptor, computed_once, which
CurveParam.frame (tate) and _FibrePlan.evaluate (bundles) use.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

# Record.__setattr__ raises, so a record's own __init__ stores through this
set_field = object.__setattr__


class computed_once:
    """A derived attribute computed on its first read and written to the
    instance's __dict__, which later reads find before this descriptor:
    functools.cached_property without the lock that Python 3.11 takes on
    every first read."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.compute.__name__] = self.compute(obj)
        return value


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # attrgetter is no descriptor, so self._key is the getter itself
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
