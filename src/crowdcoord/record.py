"""The base of the records that check themselves, on both tracks; it imports nothing."""

from __future__ import annotations


class Record:
    """Base of an immutable record whose fields are its class's ``__slots__``, each set
    once in ``__init__`` through ``object.__setattr__``; compared, hashed and shown by
    value.  For a record that a NamedTuple does not fit: one that validates itself, or
    whose ``len`` is not its number of fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild it through __init__, not setattr
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
