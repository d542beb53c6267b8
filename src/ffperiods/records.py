"""Bases of the package's value records: plain classes, cheap to define."""


class Record:
    """Fields named in `__match_args__`, kept in `__slots__` and set by the
    subclass's `__init__` through `_set`.  As for a dataclass, the repr lists
    every field, a record equals only a record of its own class with equal
    fields, and a record that can change is unhashable."""

    __slots__ = ()
    __hash__ = None

    def _set(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__match_args__))


class FrozenRecord(Record):
    """A record whose fields never change after `__init__`, hashed by them."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError("record field %r cannot change" % name)

    __delattr__ = __setattr__
