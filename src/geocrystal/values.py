"""The one convention of the package's immutable records.

A subclass of :class:`Value` names its fields in ``__slots__``, in order.  It
is constructed like a function with those parameters, refuses assignment,
compares equal to a value of the same class with equal fields, hashes as the
tuple of its fields, prints as ``Cls(f1=..., f2=...)``, and copies and
pickles by calling the class on its fields.  A subclass that validates or
normalises its arguments does so in its own ``__init__`` and then calls
``super().__init__``.
"""

from __future__ import annotations

_SET = object.__setattr__


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The arguments in field order, or the TypeError a def would raise."""
    fields, name = cls.__slots__, cls.__name__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    rest = fields[len(args):]
    for key in kwargs:
        if key in rest:
            continue
        if key in fields:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
    missing = [field for field in rest if field not in kwargs]
    if missing:
        raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
    return (*args, *(kwargs[field] for field in rest))


class Value:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = _bind(self.__class__, args, kwargs)
        for name, value in zip(fields, args):
            _SET(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())

    def __reduce__(self):  # the default restore would assign the fields
        return (self.__class__, self._field_values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"
