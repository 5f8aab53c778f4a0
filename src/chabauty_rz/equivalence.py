"""The identification relation between leveled boundary/axis coordinates.

A coordinate is a pair (k, c) of a level k >= 0 and either an axis
position or a blown-up boundary position.  Two coordinates describe the
same subgroup exactly when one of three cases holds:

  1. both are of basepoint type (vertical/irrational boundary data, a
     rational boundary at level 0, or the axis origin) -- image {0};
  2. both are rational boundary points (a/b, slope t) at levels k, k' >= 1
     with b*k = b'*k' and t/k = t'/k';
  3. both are axis points at level 0 with the same alpha > 0.

Case 2 is the interesting one: distinct cones wrap different blow-up
intervals onto the same earring circle.  The predicate below decides the
relation from the raw coordinates alone; the suites cross-check it
against canonical equality of the chart images.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple, Union

from .rationals import Record, as_fraction
from .earring import AxisCoord, OnCircle, chart_psi_II_n
from .subgroups import ClosedSubgroup, InvalidParameter, TypeI


class BoundaryCoord(Record):
    """Cone-boundary point in blown-up coordinates.

    ``rational`` is the lowest-terms label a/b of the blow-up interval
    and ``t`` the slope along it; rational=None means vertical/irrational
    data (the basepoint fibre), as does t=None at a rational label
    (the interval's ends).
    """

    __slots__ = ("rational", "t")

    def __init__(self, rational: Optional[Fraction], t: Optional[Fraction]):
        if rational is not None:
            rational = as_fraction(rational)
            if not (0 <= rational.numerator < rational.denominator):
                raise InvalidParameter("interval label must lie in [0, 1)")
        if t is not None:
            if rational is None:
                raise InvalidParameter("a slope needs a rational interval label")
            t = as_fraction(t)
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "t", t)


Coordinate = Tuple[int, Union[AxisCoord, BoundaryCoord]]


def _classify(coord: Coordinate):
    k, c = coord
    if k < 0:
        raise InvalidParameter("level must be >= 0")
    if isinstance(c, AxisCoord):
        if k != 0:
            raise InvalidParameter("axis coordinates live at level 0")
        if not c.alpha:
            return ("basepoint",)
        return ("axis", c.alpha)
    if isinstance(c, BoundaryCoord):
        if c.rational is None or c.t is None or k == 0:
            return ("basepoint",)
        # the cyclic group Z(b*t, b*k) is named by b*k and t/k
        slope = Fraction(c.t.numerator, c.t.denominator * k)
        return ("cyclic", c.rational.denominator * k, slope.numerator, slope.denominator)
    raise InvalidParameter(f"not a coordinate: {c!r}")


def check_equivalence(a: Coordinate, b: Coordinate) -> bool:
    """Decide whether two leveled coordinates name the same subgroup."""
    return _classify(a) == _classify(b)


def subgroup_image(coord: Coordinate) -> ClosedSubgroup:
    """Chart image of a coordinate, for cross-checking the relation."""
    k, c = coord
    if isinstance(c, AxisCoord):
        return TypeI(c.alpha)
    if c.rational is None or c.t is None or k == 0:
        return TypeI(Fraction(0))
    return chart_psi_II_n(k, OnCircle(c.rational.denominator, c.t))
