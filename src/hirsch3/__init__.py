"""Exact classification tools for torsion-free solvable groups of small
Hirsch length: arithmetic primitives, group element models, a classifier,
a presentation simplifier, and a randomized verifier with a CLI front end.
"""

from operator import attrgetter

__version__ = "0.1.0"


class InputError(ValueError):
    """An input the tools refuse: malformed, out of scope or past a stated
    budget.  The command line prints its message and exits 2."""


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in order in `_fields` and sets each once in
    its `__init__`, by `self._set(...)` or, where it is built in an inner
    loop, by `object.__setattr__`.  Defining the subclass gives it `_get`,
    one `operator.attrgetter` over its fields, wrapped for one field or
    none so that it always returns the field tuple; `_values`, equality,
    hash, `repr` and pickling all read it.  A record equals only a record
    of its own class with the same field tuple, hashes as that tuple, shows
    as `Name(field=value, ...)` and pickles by its constructor; setting or
    deleting an attribute raises `AttributeError`.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields) if cls._fields else lambda self: ()
        if len(cls._fields) == 1:
            get = lambda self, one=get: (one(self),)
        cls._get = staticmethod(get)

    def _values(self) -> tuple:
        return self._get(self)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._get(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._get(self)
