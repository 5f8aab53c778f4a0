"""The character-at-a-time literal parser that ``chabauty_rz.literals``
replaced, kept as the reference that its compiled patterns are checked
against: the same value, or a ``ParseError`` with the same message and
position, on every text.

The one deliberate difference: this parser takes a digit to be anything
``str.isdigit`` accepts, so for a character such as "²", which ``int()``
does not read, it reports "integer of 1 digits is too long" where the
package says "expected an integer".  Comparisons leave such texts out.
"""

from fractions import Fraction
from typing import List, Tuple

from chabauty_rz import (
    INF,
    ParseError,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    classify_from_generators,
)
from chabauty_rz.subgroups import ClosedSubgroup, canonicalize_params


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def try_word(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos) and not (
            end < len(self.text) and self.text[end].isalnum()
        ):
            self.pos = end
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # beyond the interpreter's int-digit limit
            raise ParseError(f"integer of {self.pos - digits} digits is too long", start) from exc

    def rational(self) -> Fraction:
        start = self.pos
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", start)
            return Fraction(num, den)
        return Fraction(num)

    def extended_rational(self):
        if self.try_word("inf"):
            return INF
        return self.rational()

    def keyword(self, name: str):
        self.expect(name)
        self.expect("=")

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)


def parse_subgroup(text: str) -> ClosedSubgroup:
    """Parse a subgroup literal into its canonical value."""
    c = _Cursor(text)
    if c.try_word("gen"):
        gens = _generator_list(c)
        c.done()
        return classify_from_generators(gens)
    for family, fields in _FAMILIES.values():
        if c.try_word(family):
            params = _family_body(c, fields)
            c.done()
            return canonicalize_params(family, **params)
    raise ParseError("expected a family name or 'gen'", c.pos)


def parse_rational(text: str) -> Fraction:
    """Parse a rational ``<q>``: an integer or numerator/denominator."""
    c = _Cursor(text)
    q = c.rational()
    c.done()
    return q


# Each family's literal: its name, and its fields in ``__slots__`` order,
# each with the reader of its value.  ``parse_subgroup`` tries the names in
# this order; ``try_word`` needs a word boundary, so "I" never matches
# inside "III".
_FAMILIES = {
    cls: (family, tuple(zip(cls.__slots__, readers)))
    for cls, family, readers in (
        (TypeIII, "III", (_Cursor.rational, _Cursor.rational, _Cursor.integer)),
        (TypeIV, "IV", (_Cursor.integer,)),
        (TypeII, "II", (_Cursor.rational, _Cursor.integer)),
        (TypeI, "I", (_Cursor.extended_rational,)),
    )
}


def _family_body(c: _Cursor, fields) -> dict:
    c.expect("(")
    params = {}
    for name, read in fields:
        if params:
            c.expect(",")
        c.keyword(name)
        params[name] = read(c)
    c.expect(")")
    return params


def _generator_list(c: _Cursor) -> List[Tuple[Fraction, int]]:
    c.expect("[")
    gens: List[Tuple[Fraction, int]] = []
    if c.peek() == "]":
        c.pos += 1
        return gens
    while True:
        c.expect("(")
        x = c.rational()
        c.expect(",")
        m = c.integer()
        c.expect(")")
        gens.append((x, m))
        if c.peek() == ",":
            c.pos += 1
            continue
        c.expect("]")
        return gens
