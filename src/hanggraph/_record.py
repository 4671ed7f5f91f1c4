"""Immutable records for the classes that cannot be a ``typing.NamedTuple``.

Pure-data records are NamedTuples.  ``Record`` serves the rest: a class that
needs ``functools.cached_property`` (hence an instance ``__dict__``) or its
own ``__getitem__``, as ``Graph`` and ``DistanceMatrix`` do.  It behaves as
a frozen dataclass would, without importing ``dataclasses`` (which loads
``inspect`` and ``ast`` into every process): equality and hashing compare
the fields named in ``_fields``, only between records of the same class;
the repr is ``Name(field=value, ...)``; and assigning or deleting an
attribute raises ``AttributeError``.  A subclass sets its fields in
``__init__`` by writing them into the instance ``__dict__``, as
``cached_property`` stores its values; that is also the fastest way in.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
