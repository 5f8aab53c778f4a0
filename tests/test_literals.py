import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    INF,
    InvalidParameter,
    ParseError,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    format_subgroup,
    parse_rational,
    parse_subgroup,
)

import literal_reference as reference
from strategies import literals, mutated, rational_text, subgroups_st


class TestParsing:
    def test_families(self):
        assert parse_subgroup("I(alpha=6)") == TypeI(F(6))
        assert parse_subgroup("I(alpha=inf)") == TypeI(INF)
        assert parse_subgroup("I(alpha=0)") == TypeI(F(0))
        assert parse_subgroup("II(gamma=-3/2,n=2)") == TypeII(F(-3, 2), 2)
        assert parse_subgroup("III(alpha=6/5,beta=4/5,n=1)") == TypeIII(
            F(6, 5), F(4, 5), 1
        )
        assert parse_subgroup("IV(n=3)") == TypeIV(3)

    def test_digits_are_what_int_reads(self):
        assert parse_subgroup("I(alpha=\u0663)") == TypeI(F(3))  # Arabic-Indic 3
        assert parse_subgroup("II(gamma=\uff11/\uff12,n=-\uff12)") == TypeII(F(-1, 2), 2)

    def test_generators(self):
        assert parse_subgroup("gen[(1/2,0),(1/3,0)]") == TypeI(F(6))
        assert parse_subgroup("gen[]") == TypeI(F(0))
        assert parse_subgroup("gen[(1/2,2),(1/3,3)]") == TypeIII(F(6, 5), F(4, 5), 1)

    def test_whitespace_tolerated(self):
        assert parse_subgroup(" II( gamma = 3/2 , n = 2 ) ") == TypeII(F(3, 2), 2)
        assert parse_subgroup(" gen[ (1/2 , 0) , (1/3,0) ] ") == TypeI(F(6))
        assert parse_subgroup("\u3000I\u00a0(alpha=\t1 /\n2)\u2003") == TypeI(F(1, 2))
        assert parse_rational(" -3 / 4 ") == F(-3, 4)

    def test_canonicalization_applied(self):
        assert parse_subgroup("II(gamma=1/2,n=-2)") == TypeII(F(-1, 2), 2)
        assert parse_subgroup("III(alpha=1,beta=5/2,n=1)") == TypeIII(F(1), F(1, 2), 1)

    def test_parse_errors_carry_position(self):
        for text, pos, message in [
            ("V(n=1)", 0, "expected a family name or 'gen'"),
            ("I(alpha=)", 8, "expected an integer"),
            ("II(gamma=1,n=2", 14, "expected ')'"),
            ("I(alpha=1)x", 10, "trailing input"),
            ("IV(n=0)(", 7, "trailing input"),  # n out of range, but not a literal
            ("I(alpha=-1)x", 11, "trailing input"),
            ("gen[(1/0,0)]", 5, "zero denominator"),
            # "\u00b2" is a digit to str.isdigit, but int() does not read it
            ("I(alpha=\u00b2)", 8, "expected an integer"),
            ("I(alpha=1\u00b2)", 9, "expected ')'"),
            ("I(alpha=- 1)", 8, "expected an integer"),
            ("I_(alpha=1)", 1, "expected '('"),
            ("II(gamma=1,nn=2)", 12, "expected '='"),
            ("I(alpha=infx)", 8, "expected an integer"),
            ("gen[(1,2),]", 10, "expected '('"),
            ("gen[(1,2)(3,4)]", 9, "expected ']'"),
            ("III(alpha=1, beta= 1/0,n=1)", 18, "zero denominator"),
            (f"IV(n= {'7' * 5000})", 6, "integer of 5000 digits is too long"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_subgroup(text)
            assert (err.value.position, err.value.message) == (pos, message), text

    def test_rational_errors_carry_position(self):
        for text, pos, message in [
            ("", 0, "expected an integer"),
            (" 1/0", 0, "zero denominator"),
            ("1/", 2, "expected an integer"),
            ("1/2/3", 3, "trailing input"),
            ("\u00b2", 0, "expected an integer"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_rational(text)
            assert (err.value.position, err.value.message) == (pos, message), text

    def test_domain_errors_are_not_parse_errors(self):
        with pytest.raises(InvalidParameter):
            parse_subgroup("I(alpha=-1)")
        with pytest.raises(InvalidParameter):
            parse_subgroup("II(gamma=1,n=0)")

    def test_the_walk_loads_only_for_a_failing_literal(self):
        code = (
            "import sys\n"
            "from chabauty_rz import parse_rational, parse_subgroup\n"
            "parse_subgroup(' gen[ (1/2 , 0) ] '); parse_rational('-3/4')\n"
            "assert 'chabauty_rz._literal_walk' not in sys.modules\n"
            "try:\n"
            "    parse_subgroup('I(alpha=x)')\n"
            "except ValueError:\n"
            "    pass\n"
            "assert 'chabauty_rz._literal_walk' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_no_floats(self):
        with pytest.raises(ParseError):
            parse_subgroup("I(alpha=1.5)")


class TestFormatting:
    def test_canonical_spelling(self):
        assert format_subgroup(TypeI(INF)) == "I(alpha=inf)"
        assert format_subgroup(TypeII(F(-3, 2), 2)) == "II(gamma=-3/2,n=2)"
        assert (
            format_subgroup(TypeIII(F(6, 5), F(4, 5), 1))
            == "III(alpha=6/5,beta=4/5,n=1)"
        )
        assert format_subgroup(TypeIV(3)) == "IV(n=3)"

    @settings(max_examples=200, deadline=None)
    @given(subgroups_st())
    def test_roundtrip(self, H):
        assert parse_subgroup(format_subgroup(H)) == H


# -- the compiled patterns against the character-at-a-time reference ---------

#: Characters ``str.isspace`` accepts, ASCII and not.
SPACES = [" ", "\t", "\n", "\x0b", "\x1c", "\xa0", "\u2003", "\u2028", "\u3000"]
#: Decimal digits of other scripts, which ``int()`` reads.
FOREIGN_DIGITS = ["\u0663", "\uff17", "\u0967"]

space = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
#: Letters, digits or "_" glued to a name, keyword or "inf"; only "_" and
#: the empty string leave the literal valid.
glue = st.sampled_from([""] * 12 + ["_", "x", "1", "\u00e9"])
#: A comma between the points of ``gen[...]``, at times left out.
comma = st.sampled_from([","] * 7 + [""])


@st.composite
def integer_text(draw):
    sign = draw(st.sampled_from(["", "", "+", "-"]))
    zeros = "0" * draw(st.integers(0, 2))
    kind = draw(st.integers(0, 9))
    if kind == 0:  # at and past the interpreter's 4300-digit limit
        digits = "1" * draw(st.sampled_from([4300, 4301]))
    elif kind == 1:
        digits = draw(st.sampled_from(FOREIGN_DIGITS))
    elif kind == 2:
        digits = "0"
    else:
        digits = str(draw(st.integers(0, 10**6)))
    return sign + zeros + digits


@st.composite
def rational_text_spaced(draw):
    num = draw(integer_text())
    if draw(st.booleans()):
        return num + draw(space) + "/" + draw(space) + draw(integer_text())
    return num


@st.composite
def spaced_literals(draw):
    """A literal as a list of tokens joined by drawn whitespace, with at
    times a character glued to a name."""
    fam = draw(st.sampled_from(["I", "II", "III", "IV", "gen"]))
    tokens = [fam + draw(glue)]
    if fam == "gen":
        tokens.append("[")
        for i in range(draw(st.integers(0, 3))):
            tokens += ([draw(comma)] if i else []) + [
                "(", draw(rational_text_spaced()), ",", draw(integer_text()), ")"]
        tokens.append("]")
    else:
        fields = {"I": ["alpha"], "II": ["gamma", "n"], "III": ["alpha", "beta", "n"],
                  "IV": ["n"]}[fam]
        tokens.append("(")
        for i, name in enumerate(fields):
            if name == "n":
                value = draw(integer_text())
            elif fam == "I" and draw(st.booleans()):
                value = "inf" + draw(glue)
            else:
                value = draw(rational_text_spaced())
            tokens += ([","] if i else []) + [name + draw(glue), "=", value]
        tokens.append(")")
    return draw(space) + "".join(tok + draw(space) for tok in tokens)


def outcome(parse, text):
    """The value, or the error: for a ParseError its message and position."""
    try:
        return ("value", parse(text))
    except ParseError as exc:
        return ("ParseError", exc.message, exc.position)
    except ValueError as exc:  # a domain error past the parse
        return (type(exc).__name__, str(exc))


def isdigit_only(text):
    """Does ``text`` hold a character that ``str.isdigit`` accepts but
    ``int()`` does not read?  On those the reference parser differs on
    purpose (see ``literal_reference``)."""
    return any(c.isdigit() and not c.isdecimal() for c in text)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(spaced_literals(), mutated(spaced_literals()), mutated(literals()),
                     st.text(max_size=20)))
    @example("gen[ (1/2,0) (1/3,0) ]")
    @example("I(alpha= 1/0)")
    @example("II(gamma= 1/0,n=1)")
    @example("IV(n=0)(")  # trailing input is found before the parameters are checked
    def test_same_value_or_same_error(self, text):
        assume(not isdigit_only(text))
        assert outcome(parse_subgroup, text) == outcome(reference.parse_subgroup, text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.builds("{}{}".format, space, rational_text_spaced()),
                     mutated(rational_text_spaced()), mutated(rational_text),
                     st.text(max_size=10)))
    def test_same_rational_or_same_error(self, text):
        assume(not isdigit_only(text))
        assert outcome(parse_rational, text) == outcome(reference.parse_rational, text)

    def test_the_reference_reads_more_digits(self):
        # The one deliberate difference, pinned on both sides.
        with pytest.raises(ParseError, match="integer of 1 digits is too long"):
            reference.parse_subgroup("I(alpha=\u00b2)")
        with pytest.raises(ParseError, match="position 8: expected an integer"):
            parse_subgroup("I(alpha=\u00b2)")
