"""The one convention of the package's immutable types.

A subclass of :class:`Frozen` refuses assignment and deletion: it writes its
``__slots__`` with ``object.__setattr__`` (or a slot descriptor's ``__set__``)
when it is built, and a module that records a verdict on an object, a fact
about the same immutable maps, writes it the same way.  ``copy``, ``deepcopy`` and
``pickle`` rebuild an object from the state of its slots, every slot along
the class's MRO that is set, verdicts included, without calling the class:
the state was validated when the original was built.

A subclass of :class:`Value`, a ``Frozen`` record, names its fields in
``__slots__``, in order.  It is constructed like a function with those
parameters, compares equal to a value of the same class with equal fields,
hashes as the tuple of its fields and prints as ``Cls(f1=..., f2=...)``.  A
subclass that validates or normalises its arguments does so in its own
``__init__`` and then calls ``super().__init__``.
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


def _rebuild(cls: type, state: tuple) -> Frozen:
    obj = object.__new__(cls)
    for name, value in state:
        _SET(obj, name, value)
    return obj


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __reduce__(self):  # the default restore would assign the slots
        state = tuple(
            (name, getattr(self, name))
            for cls in self.__class__.__mro__
            for name in cls.__dict__.get("__slots__", ())
            if hasattr(self, name)
        )
        return (_rebuild, (self.__class__, state))


class Value(Frozen):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = _bind(self.__class__, args, kwargs)
        for name, value in zip(fields, args):
            _SET(self, name, value)

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"
