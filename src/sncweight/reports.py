"""Small pass/fail report values shared by the validation and check routines,
and the immutable record base that the package's value classes share."""

__all__ = ["Report"]


class _Record:
    """An immutable value with slotted fields, compared and hashed by value.

    A subclass names its fields in `_fields`, declares them (plus any
    private cache) in `__slots__`, and sets each one once in `__init__`
    through `object.__setattr__`.  Equality, hash and repr read `_fields`
    in order; values of different classes never compare equal.  Classes
    compared in hot loops override `__eq__` and `__hash__` by hand.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")


class Report(_Record):
    _fields = __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: tuple[str, ...] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "details", details)

    def summary(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}"

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {d}" for d in self.details)
        return "\n".join(lines)
