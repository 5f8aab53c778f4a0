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
reported as unresolved, since refining the precision may reclassify them.
Nothing escalates the precision on its own: `denjoy_xi` returns
`Unresolved`, `glue_boundary` refuses it with `UnresolvedInput`,
`winding_count_sampled` raises `UnresolvedSample` naming the grid point,
and the CLI's `wind --sampled` exits 1 with that message.  The caller
chooses another precision or grid.

`winding_count_sampled` counts in two stages: stage one locates every
grid point once per (grid, B) and caches the least unresolved index;
stage two, on every call, walks only the samples glued onto A_m.

The work is bounded: the precision is at most MAX_PRECISION (the layout
holds about 3 B^2 / pi^2 intervals) and the sampling grid at most MAX_GRID
points; larger values raise `InvalidParameter`.

The interval coordinate lambda is carried to the angular slope by the
strictly increasing rational bijection t = (2*lambda - 1)/(lambda*(1 - lambda))
from (0, 1) onto R; lambda in {0, 1} is the basepoint (t = -+oo).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import atan, gcd, lcm, pi
from typing import List, NamedTuple, Optional, Tuple, Union

from .rationals import Record, as_fraction
from .earring import BASEPOINT, EarringPoint, OnCircle
from .subgroups import InvalidParameter

#: Largest working precision B accepted (the layout then has about 80 000
#: intervals, each start a 2200-bit integer).
MAX_PRECISION = 512
#: Largest number of sample points accepted by `winding_count_sampled`.
MAX_GRID = 1 << 16


class UnresolvedInput(InvalidParameter):
    """An unresolved blow-up coordinate reached a map that needs a decision."""


class UnresolvedSample(InvalidParameter):
    """A sampling grid point hit an unresolved blow-up query."""


class Interval(Record):
    # the lowest-terms label a/b in [0, 1) of the interval, and the affine
    # coordinate in [0, 1] along it
    __slots__ = ("rational", "lam")

    def __init__(self, rational: Fraction, lam: Fraction):
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "lam", lam)


class IrrationalPoint(Record):
    """Outside every blow-up interval of denominator <= the query precision."""

    __slots__ = ()


class Unresolved(Record):
    __slots__ = ("precision_used",)

    def __init__(self, precision_used: int):
        object.__setattr__(self, "precision_used", precision_used)


DenjoyCoord = Union[Interval, IrrationalPoint, Unresolved]

IRRATIONAL = IrrationalPoint()


def _check_precision(max_denominator: int) -> None:
    if max_denominator < 1:
        raise InvalidParameter("max_denominator must be >= 1")
    if max_denominator > MAX_PRECISION:
        raise InvalidParameter(f"max_denominator must be <= {MAX_PRECISION}")


class _Layout(NamedTuple):
    nums: List[int]    # label numerators a, the labels a/b increasing
    dens: List[int]    # label denominators b
    starts: List[int]  # D * Psi_B(a/b)
    total: int         # D * L_B
    scale: int         # the common denominator D = lcm(1..B)^3
    widths: List[int]  # widths[b] = D / b^3, the length of I_{a/b} times D


@lru_cache(maxsize=8)
def _layout(max_denominator: int) -> _Layout:
    """The truncated blow-up at precision B, in integers over one denominator.

    The labels are the Farey sequence F_B without its last term 1/1, made
    by the next-term recurrence: after consecutive terms a/b < c/d, the
    next is (k*c - a)/(k*d - b) with k = (B + b) // d.  Every b^3 with
    b <= B divides D = lcm(1..B)^3, so each width D/b^3 and each D*a/b is
    an integer, and so are the start numerators D*Psi_B(a/b) and D*L_B.
    """
    B = max_denominator
    scale = lcm(*range(1, B + 1)) ** 3
    widths = [0] + [scale // b**3 for b in range(1, B + 1)]
    per_unit = [0] + [scale // b for b in range(1, B + 1)]
    nums: List[int] = []
    dens: List[int] = []
    starts: List[int] = []
    acc = 0
    a, b, c, d = 0, 1, 1, B
    while a < b:  # stops at the term 1/1
        nums.append(a)
        dens.append(b)
        starts.append(a * per_unit[b] + acc)
        acc += widths[b]
        k = (B + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return _Layout(nums, dens, starts, scale + acc, scale, widths)


def _locate(
    num: int, den: int, max_denominator: int
) -> Union[Tuple[int, int, int, int], IrrationalPoint, Unresolved]:
    """Locate u = num/den in [0, 1) on the blown-up circle at precision B.

    Landing in I_{a/b} gives (a, b, off, width) with lambda = off/width;
    otherwise the answer is IRRATIONAL or Unresolved(B).  Arc positions are
    compared as integers scaled by D * den, so u * L_B becomes num * (D L_B).
    """
    lay = _layout(max_denominator)
    pos = num * lay.total
    i = bisect_right(lay.starts, pos // den) - 1  # starts[0] = 0 <= pos
    b = lay.dens[i]
    width = lay.widths[b] * den
    off = pos - lay.starts[i] * den
    if off <= width:
        return lay.nums[i], b, off, width
    # guard band: within width/B^2 of this interval's end or the next start
    sq = max_denominator * max_denominator
    if (off - width) * sq < width:
        return Unresolved(max_denominator)
    if i + 1 < len(lay.starts) and (lay.starts[i + 1] * den - pos) * sq < width:
        return Unresolved(max_denominator)
    return IRRATIONAL


def _label_index(lay: _Layout, p: int, q: int) -> int:
    """Index of the lowest-terms label p/q, q <= B: the first label >= p/q,
    which is p/q itself since p/q lies in F_B."""
    return bisect_left(range(len(lay.nums)), True,
                       key=lambda j: lay.nums[j] * q >= p * lay.dens[j])


@lru_cache(maxsize=64)
def _first_unresolved(grid: int, max_denominator: int) -> Optional[int]:
    """The least j whose sample j/grid is unresolved at precision B, or None."""
    for j in range(grid):
        if isinstance(_locate(j, grid, max_denominator), Unresolved):
            return j
    return None


def blowup_total_length(max_denominator: int) -> Fraction:
    """Truncated circle length L_B (exact rational)."""
    _check_precision(max_denominator)
    lay = _layout(max_denominator)
    return Fraction(lay.total, lay.scale)


def blowup_interval_start(rational, max_denominator: int) -> Fraction:
    """Truncated arc position Psi_B of a blow-up interval's left endpoint."""
    f = as_fraction(rational)
    _check_precision(max_denominator)
    p, q = f.numerator, f.denominator
    if q > max_denominator or not 0 <= p < q:
        raise InvalidParameter("rational exceeds the precision's denominator bound")
    lay = _layout(max_denominator)
    return Fraction(lay.starts[_label_index(lay, p, q)], lay.scale)


def denjoy_xi(u, max_denominator: int) -> DenjoyCoord:
    """Locate the circle point u against the blown-up circle at precision B."""
    u = as_fraction(u)
    if not (0 <= u < 1):
        raise InvalidParameter("u must lie in [0, 1)")
    _check_precision(max_denominator)
    hit = _locate(u.numerator, u.denominator, max_denominator)
    if not isinstance(hit, tuple):
        return hit
    a, b, off, width = hit
    return Interval(Fraction(a, b), Fraction(off, width))


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

    Walks u = j/grid around the circle through the blow-up and the gluing
    and sums the signed angular progress on A_m in floating point.  Stage
    one is the cached `_first_unresolved`.  Stage two sums only the steps
    into and out of the samples strictly inside an I_{a/b} with k*b = m,
    in increasing j; every step it skips is pi - pi = 0.0, so the sum is
    that of the full walk.  A sample at lambda = off/w has slope
    (2 off - w) w / (off (w - off)); int true division rounds it
    correctly, so its float is that of `slope_from_lambda`'s Fraction.
    """
    if grid < 8:
        raise InvalidParameter("grid must be >= 8")
    if grid > MAX_GRID:
        raise InvalidParameter(f"grid must be <= {MAX_GRID}")
    if k <= 0 or m <= 0:
        raise InvalidParameter("cone and circle indices must be >= 1")
    _check_precision(max_denominator)
    bad = _first_unresolved(grid, max_denominator)
    if bad is not None:
        raise UnresolvedSample(
            f"grid point {bad}/{grid} unresolved at precision {max_denominator}"
        )
    b, rem = divmod(m, k)
    if rem or b > max_denominator:
        return 0

    lay = _layout(max_denominator)
    total, w = lay.total, lay.widths[b] * grid
    angles = {}  # sample j -> its angle on A_m, j increasing
    for a in range(b):
        if gcd(a, b) == 1:
            s = lay.starts[_label_index(lay, a, b)] * grid
            # glue_boundary's rule 0 < lambda < 1; j < grid, as I_{a/b} ends before L_B
            for j in range(s // total + 1, (s + w - 1) // total + 1):
                off = j * total - s
                angles[j] = 2 * atan((2 * off - w) * w / (off * (w - off)))

    progress = 0.0
    for j in sorted({i - 1 for i in angles} | angles.keys()):
        d = angles.get(j + 1, pi) - angles.get(j, pi)  # sample 0 (= grid) is at pi
        while d <= -pi:
            d += 2 * pi
        while d > pi:
            d -= 2 * pi
        progress += d
    return round(progress / (2 * pi))
