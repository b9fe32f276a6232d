"""Value semantics for the package's record classes, without code generation.

A subclass names its compared attributes in ``_fields``.  :class:`Value`
gives it ``==`` (same class, equal fields) and a ``repr`` that spells those
fields, and leaves it unhashable, as a mutable value should be.
:class:`Frozen` sets the fields once, in ``super().__init__(name=value, ...)``,
refuses any later assignment with :class:`FrozenError`, and hashes the fields.
"""

from __future__ import annotations


class FrozenError(AttributeError):
    """An attribute of a :class:`Frozen` value was assigned or deleted."""


class Value:
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Value):
    def __init__(self, **fields: object) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
