"""Exact scalar helpers: rationals plus a positive-infinity sentinel.

Subgroup parameters live in [0, oo]; everything else is a plain Fraction.
The sentinel compares greater than every rational and equal only to itself,
which is all the ordering the rest of the code needs.  ``Record`` is the
base of the package's immutable value types; ``as_int``, ``as_fraction``,
``as_pair`` and ``as_point`` read every integer, rational, pair and point
input.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from operator import index
from typing import Union


class InvalidParameter(ValueError):
    """Input outside its legal range; every typed error of the package
    except ``literals.ParseError`` derives from it."""


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


def as_int(x, name: str) -> int:
    """``x`` read by ``operator.index`` (a bool reads as 0 or 1), or ``InvalidParameter``."""
    try:
        return index(x)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, not {type(x).__name__}") from None


def at_least(x, name: str, least: int) -> int:
    """The integer ``x`` read by ``as_int``; below ``least`` it is refused."""
    try:
        x = index(x)  # as_int's read, inline: records read their counts here
    except TypeError:
        x = as_int(x, name)  # refuses x with as_int's message
    if x < least:
        raise InvalidParameter(f"{name} must be >= {least}")
    return x


def as_fraction(x) -> Fraction:
    """Coerce ints/strings to Fraction, leaving Fractions untouched; what
    ``Fraction()`` cannot read raises ``InvalidParameter``."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InvalidParameter(f"{reprlib.repr(x)} is not a rational number") from None


def as_pair(p, what: str) -> tuple:
    """The two items of ``p``, unread; what is not a pair is refused with
    ``InvalidParameter``, its message ``what`` and ``p``."""
    try:
        a, b = p
    except (TypeError, ValueError):
        raise InvalidParameter(f"{what}, not {reprlib.repr(p)}") from None
    return a, b


def as_point(p) -> tuple:
    """A point (x, level): x read by ``as_fraction``, the level by ``as_int``."""
    x, m = as_pair(p, "a point is a pair (x, level)")
    return as_fraction(x), as_int(m, "level")


def as_points(points) -> list:
    """Each point of the iterable ``points``, read by ``as_point``."""
    try:
        return list(map(as_point, points))
    except TypeError:  # ``as_point`` raises only InvalidParameter
        raise InvalidParameter(
            f"points must be an iterable of pairs (x, level), not {reprlib.repr(points)}") from None


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

    A subclass declares ``__slots__``: ``__init__`` takes the slot names
    and stores each field, after calling the subclass's ``_check``
    staticmethod if it has one, which takes the slot names and returns the
    fields in ``__slots__`` order; a hand-written ``__init__`` is kept.
    Equality (same class, equal fields), hashing (the tuple of the
    fields), ``Name(field=value, ...)`` printing, copying and pickling all
    follow from ``__slots__`` too.  Afterwards the fields cannot change.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Compiled, in one ``exec``, so that each ``self.<slot>`` read takes
        # CPython's slot fast path (with an ``operator.attrgetter`` == and
        # hash cost up to 45 % more), and each store calls its slot's setter
        # past the refusing ``__setattr__``.  Slot names are identifiers.
        names = cls.__slots__
        fields = "".join(f"{name}, " for name in names)
        reads = "".join(f"self.{name}, " for name in names)
        source = f"def _values(self):\n    return ({reads})\n"
        scope = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
        if names and "__init__" not in cls.__dict__:
            source += f"def __init__(self, {fields}):\n"
            if hasattr(cls, "_check"):
                scope["_check"] = cls._check
                source += f"    {fields}= _check({fields})\n"
            source += "".join(f"    _set_{name}(self, {name})\n" for name in names)
        exec(source, scope)
        cls._values = scope["_values"]
        if "__init__" in scope:
            cls.__init__ = scope["__init__"]

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
