"""The base of the package's records: plain ``__slots__`` classes.

A record lists its fields in ``__slots__`` and sets them in a straight-line
``__init__``.  No method is generated, so importing the package loads
neither ``inspect`` nor ``ast`` and runs no ``exec``: those cost a fresh
``circulant`` process more than the rest of its import together.
"""

from operator import attrgetter

# A frozen record's __init__ sets each field with this, past its own __setattr__.
set_field = object.__setattr__


class Record:
    """A frozen record: ``==``, ``hash`` and ``repr`` read its ``__slots__``.

    Records of one class are equal when their fields are, and a record never
    equals one of another class.  The repr names each field,
    ``ConnectionSet(n=8, members=frozenset({1}))``.  Assigning or deleting a
    field raises AttributeError; ``copy`` and ``pickle`` rebuild a record by
    calling its class with its fields, so the ``__init__`` checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # one field reads as its value, several as a tuple: either is the key of == and hash
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
