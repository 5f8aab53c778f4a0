"""A fuzz of the exported functions over arguments of the wrong type or shape.

Each exported function is called on drawn arguments: values of the right
type from ``strategies``, and strings, floats, ``None``, 1- and 3-tuples and
records of another class.  Every call must answer, or refuse with
``InvalidParameter`` (``ParseError`` for a text that is not a literal).
Magnitudes stay small: the oracles' level loops are unbounded in them.
"""

from fractions import Fraction as F
from inspect import signature

from hypothesis import example, given, settings
from hypothesis import strategies as st

import chabauty_rz
from chabauty_rz import (
    BASEPOINT,
    IRRATIONAL,
    AxisCoord,
    BoundaryCoord,
    ConePoint,
    Interval,
    InvalidParameter,
    OnCircle,
    ParseError,
    TypeI,
    Unresolved,
    chabauty_distance,
    classify_from_generators,
    elements_in_ball,
    format_subgroup,
    membership,
    oracle_closure_ball,
)
from chabauty_rz.subgroups import distance_point_to_subgroup

from strategies import fractions_st, generator_lists_st, subgroups_st

#: Every exported function but ``run_cli``, which ``test_cli_fuzz`` covers,
#: and the point-to-subgroup oracle.
FUNCTIONS = [getattr(chabauty_rz, name) for name in chabauty_rz.__all__
             if name != "run_cli" and name[0].islower()] + [distance_point_to_subgroup]

small = st.integers(-3, 9)
records = st.sampled_from([BASEPOINT, IRRATIONAL, AxisCoord(1), OnCircle(2, 1), ConePoint(1, 1, 0),
                           Interval(F(1, 3), F(1, 2)), Unresolved(8), BoundaryCoord(F(1, 2), 1)])
#: Values of the right type: integers, rationals, subgroups, generator
#: lists, points (x, level) and coordinates (level, point).
right = st.one_of(small, fractions_st(), subgroups_st(), generator_lists_st(),
                  st.tuples(fractions_st(), small), st.tuples(small, records))
wrong = st.one_of(st.text(max_size=4), st.floats(-4, 4, width=16),
                  st.sampled_from([float("nan"), float("inf"), None]),
                  st.tuples(small), st.tuples(small, small, small), records)
arguments = st.one_of(right, wrong)


@st.composite
def calls(draw):
    fn = draw(st.sampled_from(FUNCTIONS))
    return fn, draw(st.tuples(*[arguments] * len(signature(fn).parameters)))


@settings(max_examples=300, deadline=5000)
@given(calls())
@example((membership, (TypeI(1), (1, 2, 3))))
@example((membership, (TypeI(1), 5)))
@example((distance_point_to_subgroup, ((F(1),), TypeI(1))))
@example((classify_from_generators, ([(1,)],)))
@example((classify_from_generators, ([(1, 2, 3)],)))
@example((classify_from_generators, (5,)))
@example((oracle_closure_ball, ([(1,)], 1)))
@example((elements_in_ball, ("x", 1)))
@example((chabauty_distance, ("x", TypeI(1), 1)))
@example((format_subgroup, ("x",)))
def test_every_call_answers_or_refuses(call):
    fn, args = call
    try:
        fn(*args)
    except (InvalidParameter, ParseError):
        pass
