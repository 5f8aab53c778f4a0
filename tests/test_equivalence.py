from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    AxisCoord,
    BoundaryCoord,
    INF,
    InvalidParameter,
    TypeI,
    TypeII,
    check_equivalence,
    subgroup_image,
)


def boundary(a, b, t):
    return BoundaryCoord(F(a, b), None if t is None else F(t))


class TestRelation:
    def test_cross_cone_identification(self):
        # cones 1 and 2 glue interval points with b*k equal and slope scaled
        a = (1, boundary(1, 2, 1))
        b = (2, boundary(0, 1, 2))
        assert check_equivalence(a, b)
        assert subgroup_image(a) == subgroup_image(b) == TypeII(F(2), 2)

    def test_same_product_wrong_slope(self):
        assert not check_equivalence((1, boundary(1, 2, 1)), (2, boundary(1, 2, 1)))

    def test_axis_identity(self):
        assert check_equivalence((0, AxisCoord(F(3))), (0, AxisCoord(F(3))))
        assert not check_equivalence((0, AxisCoord(F(3))), (0, AxisCoord(F(4))))
        assert check_equivalence((0, AxisCoord(INF)), (0, AxisCoord(INF)))

    def test_basepoint_class_absorbs_degenerate_data(self):
        # vertical data, interval ends, level-0 boundary and alpha = 0 all
        # have image {0} and must be mutually equivalent
        cases = [
            (2, BoundaryCoord(None, None)),
            (3, boundary(1, 2, None)),
            (0, boundary(1, 3, 1)),
            (0, AxisCoord(F(0))),
        ]
        for a in cases:
            assert subgroup_image(a) == TypeI(F(0))
            for b in cases:
                assert check_equivalence(a, b)

    def test_level_validation(self):
        # both entry points read a coordinate alike, with the same message
        for coord, message in [
            ((-1, AxisCoord(F(1))), "level must be >= 0"),
            ((2, AxisCoord(F(1))), "axis coordinates live at level 0"),
            ((-1, BoundaryCoord(None, None)), "level must be >= 0"),
            ((1, AxisCoord(F(1))), "axis coordinates live at level 0"),
        ]:
            for call in (lambda: subgroup_image(coord),
                         lambda: check_equivalence(coord, (0, AxisCoord(F(1))))):
                with pytest.raises(InvalidParameter, match=f"^{message}$"):
                    call()

    def test_coordinate_validation(self):
        with pytest.raises(InvalidParameter):
            BoundaryCoord(F(3, 2), F(1))
        with pytest.raises(InvalidParameter):
            BoundaryCoord(None, F(1))
        with pytest.raises(InvalidParameter):
            AxisCoord(F(-1))

    def test_what_is_not_a_coordinate_is_refused(self):
        # both entry points refuse it with the same message
        for call in (lambda: subgroup_image((1, "x")),
                     lambda: check_equivalence((1, "x"), (0, AxisCoord(F(1))))):
            with pytest.raises(InvalidParameter, match=r"^not a coordinate: 'x'$"):
                call()


@st.composite
def coordinates_st(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        alpha = draw(
            st.one_of(
                st.just(INF),
                st.fractions(min_value=0, max_value=9, max_denominator=6),
            )
        )
        return (0, AxisCoord(alpha))
    if kind == 1:
        return (draw(st.integers(0, 3)), BoundaryCoord(None, None))
    b = draw(st.integers(1, 5))
    a = draw(st.integers(0, b - 1))
    if F(a, b).denominator != b:
        a = 0 if b == 1 else 1
    t = draw(
        st.one_of(
            st.none(), st.fractions(min_value=-6, max_value=6, max_denominator=5)
        )
    )
    return (draw(st.integers(0, 4)), BoundaryCoord(F(a, b), t))


class TestCrossCheck:
    @settings(max_examples=250, deadline=None)
    @given(coordinates_st(), coordinates_st())
    def test_relation_matches_image_equality(self, a, b):
        assert check_equivalence(a, b) == (subgroup_image(a) == subgroup_image(b))

    @settings(max_examples=100, deadline=None)
    @given(coordinates_st())
    def test_reflexive(self, a):
        assert check_equivalence(a, a)
