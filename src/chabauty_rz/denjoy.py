"""Constructive blow-up of the circle at its rational points.

Each lowest-terms rational a/b in [0, 1) is replaced by an interval
I_{a/b} of length w(a/b) = 1/b^3; the weights are summable, so the result
is again a circle.  At working precision B the construction is truncated
to denominators b <= B, giving an exact rational model:

    total length   L_B     = 1 + sum_{b <= B} phi(b)/b^3
    start position Psi_B(s) = s + sum_{a/b < s, b <= B} 1/b^3

The tail sum over b > B of phi(b)/b^3 is below 1/B, so the truncated
positions form nested brackets of the limit construction as B grows.

A query u in [0, 1) is mapped to arc position u * L_B and located against
the truncated intervals.  Landing inside I_{a/b} yields the interval
label and an affine coordinate lambda in [0, 1]; landing outside every
interval of denominator <= B is reported as an irrational-type point
(under the gluing such points sit at the earring basepoint, as do the
unresolved deep intervals they might belong to).  Queries strictly inside
the guard band of relative width 1/B^2 around an interval endpoint are
reported as unresolved, since refining the precision may reclassify them;
callers escalate the precision instead of receiving an unstable answer.

The interval coordinate lambda is carried to the angular slope by the
strictly increasing rational bijection t = (2*lambda - 1)/(lambda*(1 - lambda))
from (0, 1) onto R; lambda in {0, 1} is the basepoint (t = -+oo).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import atan, gcd, pi
from typing import List, Tuple, Union

from .rationals import as_fraction
from .earring import BASEPOINT, EarringPoint, OnCircle
from .subgroups import InvalidParameter


class UnresolvedInput(ValueError):
    """An unresolved blow-up coordinate reached a map that needs a decision."""


class UnresolvedSample(ValueError):
    """A sampling grid point hit an unresolved blow-up query."""


@dataclass(frozen=True)
class Interval:
    rational: Fraction  # lowest-terms a/b in [0, 1) labelling the interval
    lam: Fraction       # affine coordinate in [0, 1] along the interval


@dataclass(frozen=True)
class IrrationalPoint:
    """Outside every blow-up interval of denominator <= the query precision."""


@dataclass(frozen=True)
class Unresolved:
    precision_used: int


DenjoyCoord = Union[Interval, IrrationalPoint, Unresolved]

IRRATIONAL = IrrationalPoint()


@lru_cache(maxsize=8)
def _layout(max_denominator: int) -> Tuple[List[Fraction], List[Fraction], Fraction]:
    """Sorted interval labels, their start positions Psi_B, and L_B."""
    fracs = sorted(
        Fraction(a, b)
        for b in range(1, max_denominator + 1)
        for a in range(b)
        if gcd(a, b) == 1
    )
    starts = []
    acc = Fraction(0)
    for f in fracs:
        starts.append(f + acc)
        acc += Fraction(1, f.denominator**3)
    total = 1 + acc
    return fracs, starts, total


def blowup_total_length(max_denominator: int) -> Fraction:
    """Truncated circle length L_B (exact rational)."""
    return _layout(max_denominator)[2]


def blowup_interval_start(rational, max_denominator: int) -> Fraction:
    """Truncated arc position Psi_B of a blow-up interval's left endpoint."""
    f = as_fraction(rational)
    fracs, starts, _ = _layout(max_denominator)
    i = bisect_left(fracs, f)
    if i == len(fracs) or fracs[i] != f:
        raise InvalidParameter("rational exceeds the precision's denominator bound")
    return starts[i]


def denjoy_xi(u, max_denominator: int) -> DenjoyCoord:
    """Locate the circle point u against the blown-up circle at precision B."""
    u = as_fraction(u)
    if not (0 <= u < 1):
        raise InvalidParameter("u must lie in [0, 1)")
    if max_denominator < 1:
        raise InvalidParameter("max_denominator must be >= 1")
    fracs, starts, total = _layout(max_denominator)
    pos = u * total

    idx = bisect_right(starts, pos) - 1
    if idx < 0:  # cannot happen: I_{0/1} starts at 0
        return IRRATIONAL
    start = starts[idx]
    width = Fraction(1, fracs[idx].denominator**3)
    guard = width / (max_denominator**2)

    if pos <= start + width:
        return Interval(fracs[idx], (pos - start) / width)
    if pos - (start + width) < guard:
        return Unresolved(max_denominator)
    if idx + 1 < len(starts) and starts[idx + 1] - pos < guard:
        return Unresolved(max_denominator)
    return IRRATIONAL


def slope_from_lambda(lam: Fraction) -> Fraction:
    """t = (2l - 1)/(l(1 - l)), strictly increasing from (0,1) onto R."""
    return (2 * lam - 1) / (lam * (1 - lam))


def glue_boundary(k: int, coord: DenjoyCoord) -> EarringPoint:
    """Attach the boundary of cone k to the earring.

    An interval of denominator b wraps onto circle k*b; interval ends,
    irrational-type points, and the whole boundary of the degenerate cone
    k = 0 land on the basepoint.
    """
    if isinstance(coord, Unresolved):
        raise UnresolvedInput("escalate the blow-up precision before gluing")
    if k < 0:
        raise InvalidParameter("cone index must be >= 0")
    if k == 0 or isinstance(coord, IrrationalPoint):
        return BASEPOINT
    if not (0 < coord.lam < 1):
        return BASEPOINT
    b = coord.rational.denominator
    return OnCircle(k * b, slope_from_lambda(coord.lam))


def winding_count_sampled(k: int, m: int, grid: int, max_denominator: int) -> int:
    """Numeric winding of the glued cone-k boundary around circle A_m.

    Walks u = j/grid around the circle, maps each sample through the
    blow-up and the gluing, and accumulates signed angular progress on
    A_m in floating point.  Samples landing on other circles sit at the
    basepoint of A_m.
    """
    if grid < 8:
        raise InvalidParameter("grid must be >= 8")
    if k <= 0 or m <= 0:
        raise InvalidParameter("cone and circle indices must be >= 1")

    angles = []
    for j in range(grid):
        coord = denjoy_xi(Fraction(j, grid), max_denominator)
        if isinstance(coord, Unresolved):
            raise UnresolvedSample(
                f"grid point {j}/{grid} unresolved at precision {max_denominator}"
            )
        p = glue_boundary(k, coord)
        if isinstance(p, OnCircle) and p.circle == m:
            angles.append(2 * atan(p.t))
        else:
            angles.append(pi)  # basepoint of A_m

    progress = 0.0
    for j in range(grid):
        d = angles[(j + 1) % grid] - angles[j]
        while d <= -pi:
            d += 2 * pi
        while d > pi:
            d -= 2 * pi
        progress += d
    return round(progress / (2 * pi))
