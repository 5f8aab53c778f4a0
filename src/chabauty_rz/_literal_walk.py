"""The slow path of ``literals``: a text that a form's pattern does not
match is stepped through the form's pieces, one at a time, to name the
first piece that does not fit and where it was looked for.

Stepping reads a valid literal too, to the same value, but it runs only
for a text that fails, so this module is imported on the first one and
its code is not compiled in a process whose literals all match.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .literals import (
    _FORMS,
    _GENS,
    _INF_RE,
    _INT,
    _INT_RE,
    _NAME_END,
    _NAMES,
    _POINT,
    _Q,
    _QINF,
    _READERS,
    ParseError,
)
from .rationals import INF


def _skip_space(text: str, pos: int) -> int:
    return re.compile(r"\s*").match(text, pos).end()


def _step(piece: str, text: str, pos: int):
    """Read one piece from ``pos``: its value (None for a token) and its
    end, or the ``ParseError`` that names the piece."""
    at = _skip_space(text, pos)
    if piece == _INT:
        m = re.compile(_INT_RE).match(text, pos)
        if m is None:
            raise ParseError("expected an integer", at)
        try:
            return int(m[1]), m.end()
        except ValueError as exc:  # beyond the interpreter's int-digit limit
            digits = len(m[1].lstrip("+-"))
            raise ParseError(f"integer of {digits} digits is too long", at) from exc
    if piece == _Q:
        num, end = _step(_INT, text, pos)
        slash = _skip_space(text, end)
        if not text.startswith("/", slash):
            return Fraction(num), end
        den, end = _step(_INT, text, slash + 1)
        if den == 0:
            raise ParseError("zero denominator", pos)
        return Fraction(num, den), end
    if piece == _QINF:
        m = re.compile(_INF_RE).match(text, pos)
        return (INF, m.end()) if m else _step(_Q, text, at)
    if piece == _GENS:
        gens = []
        if text.startswith("]", at):
            return gens, at + 1
        while True:
            (x, m), pos = _steps(_POINT, text, pos)
            gens.append((x, m))
            at = _skip_space(text, pos)
            if not text.startswith(",", at):
                return gens, _step("]", text, pos)[1]
            pos = at + 1
    if not text.startswith(piece, at):
        raise ParseError(f"expected {piece!r}", at)
    return None, at + len(piece)


def _steps(pieces, text: str, pos: int):
    """Read ``pieces`` in turn from ``pos``: their values and the end."""
    values = []
    for piece in pieces:
        value, pos = _step(piece, text, pos)
        if piece in _READERS:
            values.append(value)
    return values, pos


def walk(name: str, text: str, pos: int, make):
    """Form ``name`` stepped from ``pos``, after its name, to the end of
    ``text``: ``make`` of its values.  ``make`` runs after the check for
    trailing input, so a text that is not a literal is a parse error even
    when its parameters are out of range."""
    values, pos = _steps(_FORMS[name], text, pos)
    pos = _skip_space(text, pos)
    if pos != len(text):
        raise ParseError("trailing input", pos)
    return make(values)


def walk_subgroup(text: str, make):
    """The subgroup literal ``text`` stepped from its family name: ``make``
    of the name and the values."""
    pos = _skip_space(text, 0)
    for name in _NAMES:
        if re.compile(name + _NAME_END).match(text, pos):
            return walk(name, text, pos + len(name), lambda values: make(name, values))
    raise ParseError("expected a family name or 'gen'", pos)
