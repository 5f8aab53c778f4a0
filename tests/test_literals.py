import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from chabauty_rz import (
    INF,
    InvalidParameter,
    ParseError,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    format_subgroup,
    parse_subgroup,
)
from chabauty_rz.literals import parse_rational

from references import ENTRIES, literal_reference as reference
from strategies import subgroups_st


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
            "from chabauty_rz.literals import parse_rational, parse_subgroup\n"
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


class TestAgainstReference:
    """The compiled patterns against the character-at-a-time reference."""

    def test_same_value_or_same_error(self):
        ENTRIES["parse-subgroup"].run()

    def test_same_rational_or_same_error(self):
        ENTRIES["parse-rational"].run()

    def test_the_reference_reads_more_digits(self):
        # The one deliberate difference, pinned on both sides.
        with pytest.raises(ParseError, match="integer of 1 digits is too long"):
            reference.parse_subgroup("I(alpha=\u00b2)")
        with pytest.raises(ParseError, match="position 8: expected an integer"):
            parse_subgroup("I(alpha=\u00b2)")
