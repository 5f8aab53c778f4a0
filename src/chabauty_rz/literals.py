"""Parsing and printing of subgroup literals.

Grammar accepted:

    I(alpha=<q|inf>)
    II(gamma=<q>,n=<int>)
    III(alpha=<q>,beta=<q>,n=<int>)
    IV(n=<int>)
    gen[(<q>,<int>),...]

where <int> is an optional sign and digits, and <q> an <int> or a
numerator/denominator pair like -3/4.  Digits are what ``int()`` reads
(Unicode decimal digits).  Whitespace (what ``str.isspace`` accepts) may
go before and after every token, but not between a sign and its digits
nor inside a name or a number.  The ``gen[...]`` form names the closure
of the subgroup generated by the listed points and goes through the
classifier; the keyword forms go through parameter canonicalization
(beta mod 1, sign normalization).  ``format_subgroup`` prints the
canonical literal, and parsing it back round-trips to the same value.

Each form is declared once, in ``_FORMS``, as its pieces: tokens to
expect and values to read.  The pieces joined give one pattern per form,
compiled on the form's first use, whose ``fullmatch`` checks a literal
and captures its values in one call.  A text that does not match is
stepped through the same pieces, one at a time, by ``_literal_walk``
(loaded on the first such text), and the ``ParseError`` names the first
piece that does not fit and where it was looked for.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache

from .rationals import INF, fmt_record
from .subgroups import (
    ClosedSubgroup,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    canonicalize_params,
    classify_from_generators,
)


class ParseError(ValueError):
    """Invalid subgroup literal; carries the bare message, the offending
    position and, for literals read from a file, the ``file:line`` source."""

    def __init__(self, message: str, position: int, source: str = ""):
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}at position {position}: {message}")
        self.message = message
        self.position = position


# The value pieces; every other piece is a token.  Each value's pattern
# takes its leading whitespace and captures its strings.
_INT, _Q, _QINF, _GENS = "<int>", "<q>", "<q|inf>", "<gen>"
_NAME_END = r"(?![^\W_])"  # no letter or digit (str.isalnum) follows
_INT_RE = r"\s*([+-]?\d+)"
_INF_RE = r"\s*(inf)" + _NAME_END
_Q_RE = rf"{_INT_RE}(?:\s*/{_INT_RE})?"
_POINT = ("(", _Q, ",", _INT, ")")
_POINT_RE = rf"\s*\({_Q_RE}\s*,{_INT_RE}\s*\)"
_SOURCES = {
    _INT: _INT_RE,
    _Q: _Q_RE,
    _QINF: f"(?:{_INF_RE}|{_Q_RE})",
    # the points, as group 1; each one followed by a comma and the next
    # point, or by the "]"
    _GENS: rf"((?:{_POINT_RE}(?=\s*[,\]])(?:\s*,(?=\s*\())?)*)\s*\]",
}

#: Each form by its name: its pieces after the name.  ``parse_subgroup``
#: tries the names in this order; "" is the bare rational.
_FORMS = {
    "gen": ("[", _GENS),
    "III": ("(", "alpha", "=", _Q, ",", "beta", "=", _Q, ",", "n", "=", _INT, ")"),
    "IV": ("(", "n", "=", _INT, ")"),
    "II": ("(", "gamma", "=", _Q, ",", "n", "=", _INT, ")"),
    "I": ("(", "alpha", "=", _QINF, ")"),
    "": (_Q,),
}
_FAMILIES = {TypeIII: "III", TypeIV: "IV", TypeII: "II", TypeI: "I"}
_SLOTS = {name: cls.__slots__ for cls, name in _FAMILIES.items()}
_NAMES = ("gen", *_FAMILIES.values())


def _rational(num: str, den) -> Fraction:
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _points(span: str, *_):
    """The points of ``gen[...]`` from the span of its list, group 1 of
    the form's match; the other groups hold only the last point."""
    points = _compile("point")[0].findall(span)
    return [(_rational(num, den), int(m)) for num, den, m in points]


#: Each value piece: its reader and the number of groups it captures.
_READERS = {
    _INT: (int, 1),
    _Q: (_rational, 2),
    _QINF: (lambda inf, num, den: INF if inf else _rational(num, den), 3),
    _GENS: (_points, 4),
}


@cache
def _compile(name: str):
    """Form ``name``'s pattern and, for each of its value pieces, the
    reader and the slice of groups it reads; built on first use.  The
    name "point" gives the pattern of one point of ``gen[...]``."""
    if name == "point":
        return re.compile(_POINT_RE), []
    pieces, spans, i = _FORMS[name], [], 0
    for piece in pieces:
        if piece in _READERS:
            read, n = _READERS[piece]
            spans.append((read, i, i + n))
            i += n
    source = "".join(_SOURCES.get(p) or r"\s*" + re.escape(p) for p in pieces)
    return re.compile((name and name + _NAME_END) + source + r"\s*"), spans


def _read(name: str, body: str):
    """The values of form ``name`` in ``body`` (no leading whitespace)
    by one ``fullmatch``, or None if it does not match or a value cannot
    be read: past ``int()``'s digit limit, or a zero denominator."""
    pattern, spans = _compile(name)
    m = pattern.fullmatch(body)
    if m is None:
        return None
    groups = m.groups()
    try:
        return [read(*groups[i:j]) for read, i, j in spans]
    except (ValueError, ZeroDivisionError):
        return None


def _subgroup(name: str, values) -> ClosedSubgroup:
    if name == "gen":
        return classify_from_generators(values[0])
    return canonicalize_params(name, **dict(zip(_SLOTS[name], values)))


def parse_subgroup(text: str) -> ClosedSubgroup:
    """Parse a subgroup literal into its canonical value."""
    body = text.lstrip()
    for name in _NAMES:
        if body.startswith(name):
            values = _read(name, body)
            if values is not None:
                return _subgroup(name, values)
            break
    from ._literal_walk import walk_subgroup

    return walk_subgroup(text, _subgroup)


def parse_rational(text: str) -> Fraction:
    """Parse a rational ``<q>``: an integer or numerator/denominator."""
    values = _read("", text.lstrip())
    if values is None:
        from ._literal_walk import walk

        return walk("", text, 0, lambda values: values[0])
    return values[0]


def format_subgroup(H: ClosedSubgroup) -> str:
    """Canonical literal; parse_subgroup(format_subgroup(H)) == H."""
    name = _FAMILIES.get(type(H))
    if name is None:
        raise TypeError(f"not a subgroup value: {H!r}")
    return fmt_record(name, H)
