"""The immutable base of quorder's value types.

A `Value` behaves as a frozen dataclass does: assigning or deleting an
attribute raises AttributeError, equality and hashing read the fields named
in `_compared`, and repr shows the fields named in `_fields` as
``Name(field=value, ...)``. Each subclass writes its own `__init__`, which
sets the fields with `object.__setattr__` or in the instance dictionary.
`cached_property` writes to that dictionary too, so facts computed on first
use are kept.

Plain classes keep `dataclasses`, and the `inspect` it imports, off the
import path of the command line.
"""

from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()  # shown by repr, in constructor order
    _compared: tuple[str, ...] = ()  # read by == and hash; defaults to _fields

    def __init_subclass__(cls):
        cls._compared = vars(cls).get("_compared", cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class cached_property:
    """`functools.cached_property` without its lock: the value is computed
    on first read and stored in the instance dictionary, where every later
    read finds it before this non-data descriptor. Python 3.11's version
    takes a lock on each first read, which the census pays for the facts
    (`first_moved`, `first_merged`, `canonical_table`) of every quandle it
    generates. The values are immutable, so two threads that race on a
    first read store equal results."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
