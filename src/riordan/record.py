"""Value records: classes whose fields are their ``__slots__``.

The package's records are plain classes rather than standard-library data
classes, whose module loads ``inspect``, ``ast``, ``dis`` and ``tokenize``:
a request that compiles its modules from source would spend more on that
import than on all of its records.  A record class lists its fields in
``__slots__`` and writes its own ``__init__``, with the signature and
defaults that callers see; :class:`Record` and :class:`Frozen` supply
equality, hashing, printing and immutability.  Records that validate
nothing and define no operators, so that acting as tuples does them no
harm, are ``typing.NamedTuple`` classes instead.
"""

from __future__ import annotations


class Record:
    """A mutable record that compares and prints by its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """An immutable record, hashed by its fields.

    ``__init__`` sets every field once, through :meth:`_init`; assigning or
    deleting a field afterwards raises ``AttributeError``.
    """

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self) -> int:
        return hash(self._values())
