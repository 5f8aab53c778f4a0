"""The package's value types: immutable, compared by class and fields.

The ``repr`` strings below were recorded from the frozen dataclasses these
types once were, so the table pins that nothing visible changed.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

import chabauty_rz
from chabauty_rz import InvalidParameter
from chabauty_rz.denjoy import (
    IRRATIONAL,
    Interval,
    IrrationalPoint,
    Unresolved,
    denjoy_xi,
    glue_boundary,
)
from chabauty_rz.earring import (
    BASEPOINT,
    AxisCoord,
    Basepoint,
    ConePoint,
    OnCircle,
    winding_count,
)
from chabauty_rz.equivalence import BoundaryCoord
from chabauty_rz.literals import format_subgroup
from chabauty_rz.metric import DistanceBracket, LimitReport, chabauty_distance, verify_limit
from chabauty_rz.oracle import oracle_closure_ball
from chabauty_rz.rationals import INF, Record, as_int
from chabauty_rz.subgroups import (
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    classify_from_generators,
    distance_point_to_subgroup,
    elements_in_ball,
    eta_cyclic,
    membership,
)
from chabauty_rz.suites import CaseResult, SuiteReport, run_suite

#: (value, its field names, its repr), one or more per value type.
VALUES = [
    (TypeI(3), ("alpha",), "TypeI(alpha=Fraction(3, 1))"),
    (TypeI(INF), ("alpha",), "TypeI(alpha=INF)"),
    (TypeII("-1/2", 2), ("gamma", "n"), "TypeII(gamma=Fraction(-1, 2), n=2)"),
    (TypeIII(2, F(1, 3), 1), ("alpha", "beta", "n"),
     "TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 3), n=1)"),
    (TypeIV(2), ("n",), "TypeIV(n=2)"),
    (AxisCoord(F(5, 2)), ("alpha",), "AxisCoord(alpha=Fraction(5, 2))"),
    (BASEPOINT, (), "Basepoint()"),
    (OnCircle(3, -2), ("circle", "t"), "OnCircle(circle=3, t=Fraction(-2, 1))"),
    (ConePoint(2, INF, F(1, 2)), ("k", "alpha", "beta"),
     "ConePoint(k=2, alpha=INF, beta=Fraction(0, 1))"),
    (ConePoint(1, 0, "1/4"), ("k", "alpha", "beta"),
     "ConePoint(k=1, alpha=Fraction(0, 1), beta=Fraction(1, 4))"),
    (Interval(F(1, 3), F(1, 2)), ("rational", "lam"),
     "Interval(rational=Fraction(1, 3), lam=Fraction(1, 2))"),
    (IRRATIONAL, (), "IrrationalPoint()"),
    (Unresolved(64), ("precision_used",), "Unresolved(precision_used=64)"),
    (CaseResult("c1", True, "d=1/2"), ("id", "passed", "detail"),
     "CaseResult(id='c1', passed=True, detail='d=1/2')"),
    (SuiteReport("metric", 3, (CaseResult("c1", False, "x"),)), ("suite", "seed", "cases"),
     "SuiteReport(suite='metric', seed=3, cases=(CaseResult(id='c1', passed=False, detail='x'),))"),
    (LimitReport((DistanceBracket(F(0), F(1, 2)),), True), ("distances", "passed"),
     "LimitReport(distances=(DistanceBracket(lo=Fraction(0, 1), hi=Fraction(1, 2)),), passed=True)"),
    (BoundaryCoord(F(1, 3), -1), ("rational", "t"),
     "BoundaryCoord(rational=Fraction(1, 3), t=Fraction(-1, 1))"),
    (BoundaryCoord(None, None), ("rational", "t"), "BoundaryCoord(rational=None, t=None)"),
]

IDS = [text for _, _, text in VALUES]


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


def test_every_value_type_is_in_the_table():
    package_records = {
        cls for cls in Record.__subclasses__() if cls.__module__.startswith("chabauty_rz.")
    }
    assert {type(value) for value, _, _ in VALUES} == package_records


@pytest.mark.parametrize("value, names, text", VALUES, ids=IDS)
def test_repr(value, names, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, names, text", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(value, names, text):
    assert hash(value) == hash(fields_of(value, names))


@pytest.mark.parametrize("value, names, text", VALUES, ids=IDS)
def test_positional_and_keyword_construction(value, names, text):
    values = fields_of(value, names)
    by_position = type(value)(*values)
    by_keyword = type(value)(**dict(zip(names, values)))
    assert by_position == value and by_keyword == value
    assert repr(by_position) == repr(by_keyword) == text
    assert hash(by_position) == hash(value)


@pytest.mark.parametrize("value, names, text", VALUES, ids=IDS)
def test_fields_cannot_change(value, names, text):
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, names, text", VALUES, ids=IDS)
def test_copy_and_pickle_keep_the_value(value, names, text):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def test_equal_fields_of_different_classes_are_not_equal():
    assert TypeI(3) != TypeIV(3) and not TypeI(3) == TypeIV(3)
    assert BASEPOINT != IRRATIONAL
    assert Interval(F(1, 3), F(1, 2)) != BoundaryCoord(F(1, 3), F(1, 2))
    assert AxisCoord(2) != TypeI(2)
    assert TypeIII(2, F(1, 3), 1) != (F(2), F(1, 3), 1)
    assert len({TypeI(3), TypeIV(3), TypeI(F(6, 2))}) == 2


def test_equal_fields_of_one_class_are_equal():
    assert TypeIII(F(4, 2), "1/3", 1) == TypeIII(2, F(1, 3), 1)
    assert Basepoint() == BASEPOINT and IrrationalPoint() == IRRATIONAL
    assert ConePoint(2, INF, F(1, 2)) == ConePoint(2, INF, 0)
    assert TypeII(F(1, 2), 1) != TypeII(F(1, 2), 2)


@pytest.mark.parametrize("build, message", [
    (lambda: TypeI(-1), "TypeI alpha must be >= 0"),
    (lambda: TypeII(5, 0), "TypeII n must be >= 1"),
    (lambda: TypeIII(0, 0, 1), "TypeIII alpha must be in (0, INF)"),
    (lambda: TypeIII(INF, 0, 1), "TypeIII alpha must be in (0, INF)"),
    (lambda: TypeIII(-1, 5, 0), "TypeIII alpha must be in (0, INF)"),
    (lambda: TypeIII(1, 1, 1), "TypeIII beta must lie in [0, 1)"),
    (lambda: TypeIII(1, F(-1, 2), 0), "TypeIII beta must lie in [0, 1)"),
    (lambda: TypeIII(1, 0, 0), "TypeIII n must be >= 1"),
    (lambda: TypeIV(0), "TypeIV n must be >= 1"),
    (lambda: AxisCoord(F(-1, 3)), "axis alpha must be >= 0"),
    (lambda: OnCircle(0, 1), "circle index must be >= 1"),
    (lambda: ConePoint(0, -1, 5), "cone index must be >= 1"),
    (lambda: ConePoint(1, -1, 5), "cone alpha must be in [0, INF]"),
    (lambda: ConePoint(1, 1, 1), "cone beta must lie in [0, 1)"),
    (lambda: BoundaryCoord(1, None), "interval label must lie in [0, 1)"),
    (lambda: BoundaryCoord(None, 1), "a slope needs a rational interval label"),
])
def test_validation_messages(build, message):
    with pytest.raises(InvalidParameter) as info:
        build()
    assert str(info.value) == message


#: Inputs that were read wrongly or refused with an untyped error, each
#: with the old outcome; each is now refused with InvalidParameter.
REFUSED = [
    ("membership(TypeIV(1), (0, 1.5))", "True: the level was truncated to 1",
     "level must be an integer, not float"),
    ("distance_point_to_subgroup((0, 1.5), TypeIV(1))", "0",
     "level must be an integer, not float"),
    ("classify_from_generators([(0, 1.5)])", "TypeII(gamma=Fraction(0, 1), n=1)",
     "level must be an integer, not float"),
    ("oracle_closure_ball([(0, 1.5)], 2)", "the ball of the group through (0, 1)",
     "level must be an integer, not float"),
    ("eta_cyclic(1, 1.5)", "the generator (1, 1)", "level must be an integer, not float"),
    ("TypeIV(1.5)", "TypeIV(n=1.5)", "TypeIV n must be an integer, not float"),
    ("chabauty_distance(TypeIV(1.5), TypeIV(1), 1)", "[1, 1]",
     "TypeIV n must be an integer, not float"),
    ("glue_boundary(1.5, Interval(F(1, 2), F(1, 2)))", "OnCircle(circle=3.0, t=Fraction(0, 1))",
     "cone index must be an integer, not float"),
    ("TypeIV('3')", "TypeError", "TypeIV n must be an integer, not str"),
    ("winding_count(1.5, 3)", "TypeError", "cone index must be an integer, not float"),
    ("denjoy_xi(0, 64.0)", "TypeError", "max_denominator must be an integer, not float"),
    ("run_suite('metric', 0, 2.5)", "TypeError", "budget must be an integer, not float"),
    ("verify_limit([TypeI(1)], TypeI(1), 1, 1.0)", "TypeError",
     "tail must be an integer, not float"),
    ("TypeI(float('inf'))", "OverflowError", "inf is not a rational number"),
    ("TypeII('abc', 1)", "ValueError", "'abc' is not a rational number"),
    ("TypeI('1' * 5000)", "ValueError", "'111111111111...1111111111111' is not a rational number"),
    ("elements_in_ball(TypeI(1), float('nan'))", "ValueError", "nan is not a rational number"),
    ("membership(TypeI(1), (1, 2, 3))", "False: it read the first two coordinates",
     "a point is a pair (x, level), not (1, 2, 3)"),
    ("membership(TypeI(1), 5)", "TypeError", "a point is a pair (x, level), not 5"),
    ("distance_point_to_subgroup((F(1),), TypeI(1))", "IndexError",
     "a point is a pair (x, level), not (Fraction(1, 1),)"),
    ("classify_from_generators([(1,)])", "ValueError", "a point is a pair (x, level), not (1,)"),
    ("classify_from_generators([(1, 2, 3)])", "ValueError",
     "a point is a pair (x, level), not (1, 2, 3)"),
    ("classify_from_generators(5)", "TypeError",
     "points must be an iterable of pairs (x, level), not 5"),
    ("oracle_closure_ball([(1,)], 1)", "ValueError", "a point is a pair (x, level), not (1,)"),
    ("elements_in_ball('x', 1)", "TypeError", "not a subgroup value: 'x'"),
    ("chabauty_distance('x', TypeI(1), 1)", "TypeError", "not a subgroup value: 'x'"),
    ("format_subgroup('x')", "TypeError", "not a subgroup value: 'x'"),
]


@pytest.mark.parametrize("call, was, message", REFUSED, ids=[call for call, _, _ in REFUSED])
def test_unreadable_integers_and_rationals_are_refused(call, was, message):
    try:
        got = eval(call)
    except InvalidParameter as exc:
        assert str(exc) == message
    else:
        pytest.fail(f"{call} answered {got!r}, as it once answered {was}")


def test_integers_and_rationals_that_read():
    assert TypeIV(True) == TypeIV(1) and type(TypeIV(True).n) is int
    assert TypeII(0.5, 2) == TypeII(F(1, 2), 2)  # floats that Fraction reads exactly
    assert membership(TypeIV(1), (0.25, True))
    assert chabauty_rz.subgroups.InvalidParameter is chabauty_rz.rationals.InvalidParameter


# Records with 0, 1, 2 and 3 fields: by __slots__ alone, with a _check, and
# with a hand-written __init__; at module level, so that pickle finds them.
class NoFields(Record):
    __slots__ = ()


class NoInit(Record):
    __slots__ = ("a", "b")


class Checked(Record):
    __slots__ = ("a", "b")

    @staticmethod
    def _check(a, b):
        return as_int(a, "a"), as_int(b, "b")


class OneField(Record):
    __slots__ = ("a",)

    def __init__(self, a):
        object.__setattr__(self, "a", a)


class ThreeFields(Record):
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@pytest.mark.parametrize("cls, text", [
    (NoFields, "NoFields()"),
    (NoInit, "NoInit(a=1, b=2)"),
    (Checked, "Checked(a=1, b=2)"),
    (OneField, "OneField(a=1)"),
    (ThreeFields, "ThreeFields(a=1, b=2, c=3)"),
])
def test_every_slot_is_a_field(cls, text):
    fields = tuple(range(1, len(cls.__slots__) + 1))
    value = cls(*fields)
    assert repr(value) == text
    assert value == cls(*fields) and hash(value) == hash(fields)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text
    for i, name in enumerate(cls.__slots__):
        changed = fields[:i] + (-1,) + fields[i + 1:]
        other = cls(*changed)
        assert other != value and hash(other) == hash(changed) != hash(fields)
        assert f"{name}=-1" in repr(other)
        for twin in (copy.copy(other), pickle.loads(pickle.dumps(other))):
            assert twin == other != value


def test_check_runs_before_the_fields_are_stored():
    value = Checked(b=False, a=True)
    assert repr(value) == "Checked(a=1, b=0)" and value == Checked(1, 0)
    with pytest.raises(InvalidParameter, match="b must be an integer, not str"):
        Checked(1, "2")
    with pytest.raises(TypeError):
        NoInit(1)
