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
Both bands of a gap take the width of the interval before it, and the
gap after the last interval, which wraps round to 0, has only the band
past that interval's end.
Nothing escalates the precision on its own: `denjoy_xi` returns
`Unresolved`, `glue_boundary` refuses it with `UnresolvedInput`,
`winding_count_sampled` raises `UnresolvedSample` naming the grid point,
and the CLI's `wind --sampled` exits 1 with that message.  The caller
chooses another precision or grid.

The layout is built in integers over one common denominator, and it holds
only the labels up to 1/2.  The reflection x -> fold - x, with fold =
1 + L_B, maps I_{a/b} onto I_{(b-a)/b}, lambda onto 1 - lambda, and the
middle of I_{1/2} onto itself.  So a position past that middle is read
at its mirror by the same band rule, with label i + 1's width for both
bands of a gap between labels i and i + 1 (its mirror is the interval
before the original gap) and no band past I_{0/1} (the gap after 0/1 is
the wrap's mirror).  At B = 1, where 1/2 is not a label, nothing reflects.

`winding_count_sampled` works by runs of samples, not by single samples,
in two stages.  Stage one, once per (grid, B), is one walk over the
intervals and gaps that hold grid points up to I_{1/2}, run forward and
then, if need be, over the mirrors of the samples past the middle, with
the bands read at the mirror.  It jumps over each interval, whose samples
all resolve, and tests a gap's guard bands at its first and last samples
only; the least unresolved index is cached.  Stage two, on every call,
counts the winding of the sampled walk around A_m exactly, from a few
integer sign tests per interval of denominator m/k.  A step of exactly
pi between two samples is not corrected, as the float angle sum that
this count replaced kept pi.

The work is bounded: the precision is at most MAX_PRECISION (the layout
holds about 3 B^2 / (2 pi^2) intervals) and the sampling grid at most
MAX_GRID points; larger values raise `InvalidParameter`.

The interval coordinate lambda is carried to the angular slope by the
strictly increasing rational bijection t = (2*lambda - 1)/(lambda*(1 - lambda))
from (0, 1) onto R; lambda in {0, 1} is the basepoint (t = -+oo).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Tuple, Union

from .rationals import Record, as_fraction, as_int, at_least
from .earring import BASEPOINT, EarringPoint, OnCircle
from .subgroups import InvalidParameter

#: Largest working precision B accepted (the layout then has about 40 000
#: intervals, each start a 2200-bit integer).
MAX_PRECISION = 512
#: Largest number of sample points accepted by `winding_count_sampled`.
MAX_GRID = 1 << 16
#: The layouts kept are the most recently used ones whose labels total at
#: most this: about those of the layout at MAX_PRECISION (39 927).
MAX_HELD_LABELS = 40_000


class UnresolvedInput(InvalidParameter):
    """An unresolved blow-up coordinate reached a map that needs a decision."""


class UnresolvedSample(InvalidParameter):
    """A sampling grid point hit an unresolved blow-up query."""


class Interval(Record):
    # the lowest-terms label a/b in [0, 1) of the interval, and the affine
    # coordinate in [0, 1] along it
    __slots__ = ("rational", "lam")

    @staticmethod
    def _check(rational, lam):
        rational, lam = as_fraction(rational), as_fraction(lam)
        if not 0 <= rational.numerator < rational.denominator:
            raise InvalidParameter("interval label must lie in [0, 1)")
        if not 0 <= lam.numerator <= lam.denominator:
            raise InvalidParameter("lambda must lie in [0, 1]")
        return rational, lam


class IrrationalPoint(Record):
    """Outside every blow-up interval of denominator <= the query precision."""

    __slots__ = ()


class Unresolved(Record):
    __slots__ = ("precision_used",)

    @staticmethod
    def _check(precision_used):
        return (at_least(precision_used, "precision_used", 1),)


DenjoyCoord = Union[Interval, IrrationalPoint, Unresolved]

IRRATIONAL = IrrationalPoint()


def _check_precision(max_denominator: int) -> int:
    max_denominator = at_least(max_denominator, "max_denominator", 1)
    if max_denominator > MAX_PRECISION:
        raise InvalidParameter(f"max_denominator must be <= {MAX_PRECISION}")
    return max_denominator


class _Layout(NamedTuple):
    nums: List[int]    # label numerators a, the labels a/b <= 1/2 increasing
    dens: List[int]    # label denominators b
    starts: List[int]  # D * Psi_B(a/b)
    total: int         # D * L_B
    scale: int         # the common denominator D = lcm(1..B)^3
    widths: List[int]  # widths[b] = D / b^3, the length of I_{a/b} times D
    fold: int          # D + D * L_B: x -> fold - x maps I_{a/b} onto I_{(b-a)/b}
    mid: int           # fold // 2, inside I_{1/2}; total at B = 1, past every position


def _build_layout(B: int) -> _Layout:
    """The truncated blow-up at precision B, in integers over one denominator.

    The labels are the terms of the Farey sequence F_B up to 1/2.  The
    next-term recurrence (after consecutive terms a/b < c/d, the next is
    (k*c - a)/(k*d - b) with k = (B + b) // d) makes them.  The labels past
    1/2 mirror those below it under x -> 1 - x, which keeps widths.  With
    acc the widths up to 1/2, the widths past it sum to acc - w(1/2), so
    D*L_B = 2*acc - w(1/2) and D*Psi_B(1 - x) = fold - D*Psi_B(x) - w(x).
    Every b^3 with b <= B divides D = lcm(1..B)^3, so each width D/b^3 and
    each D*a/b is an integer, and so are the start numerators and D*L_B.
    """
    scale = lcm(*range(1, B + 1)) ** 3
    widths = [0] + [scale // b**3 for b in range(1, B + 1)]
    if B == 1:  # 1/2 is not a label
        return _Layout([0], [1], [0], 2 * scale, scale, widths, 3 * scale, 2 * scale)
    per_unit = [0] + [scale // b for b in range(1, B + 1)]
    nums: List[int] = []
    dens: List[int] = []
    starts: List[int] = []
    acc = 0
    a, b, c, d = 0, 1, 1, B
    while 2 * a <= b:  # stops past the term 1/2
        nums.append(a)
        dens.append(b)
        starts.append(a * per_unit[b] + acc)
        acc += widths[b]
        k = (B + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    total = 2 * acc - widths[2]  # acc has counted w(1/2) once
    fold = scale + total
    return _Layout(nums, dens, starts, total, scale, widths, fold, fold // 2)


_LAYOUTS: "OrderedDict[int, _Layout]" = OrderedDict()  # least recently used first


def _layout(max_denominator: int) -> _Layout:
    """The layout at precision B, kept among the most recently used while
    their labels total at most MAX_HELD_LABELS (the newest always stays)."""
    lay = _LAYOUTS.get(max_denominator)
    if lay is not None:
        _LAYOUTS.move_to_end(max_denominator)
        return lay
    lay = _LAYOUTS[max_denominator] = _build_layout(max_denominator)
    held = sum(len(kept.starts) for kept in _LAYOUTS.values())
    while held > MAX_HELD_LABELS and len(_LAYOUTS) > 1:
        held -= len(_LAYOUTS.popitem(last=False)[1].starts)
    return lay


def _locate(
    num: int, den: int, max_denominator: int
) -> Union[Tuple[int, int, int, int], IrrationalPoint, Unresolved]:
    """Locate u = num/den in [0, 1) on the blown-up circle at precision B.

    Landing in I_{a/b} gives (a, b, off, width) with lambda = off/width;
    otherwise the answer is IRRATIONAL or Unresolved(B).  Arc positions are
    compared as integers scaled by D * den, so u * L_B becomes num * (D L_B).
    A position from `mid` on, inside I_{1/2} where both readings agree, is
    answered at its mirror fold - pos.
    """
    nums, dens, starts, total, _, widths, fold, mid = _layout(max_denominator)
    pos = num * total
    q = pos // den
    mirrored = q >= mid
    # the last start <= x is at most q; at the mirror x = fold * den - pos,
    # past I_{0/1}, at most fold - q, and below it when that start is past x
    x = fold * den - pos if mirrored else pos
    i = bisect_right(starts, fold - q if mirrored else q) - 1
    off = x - starts[i] * den
    if off < 0:
        i -= 1
        off = x - starts[i] * den
    b = dens[i]
    width = widths[b] * den
    if off <= width:
        return (b - nums[i], b, width - off, width) if mirrored else (nums[i], b, off, width)
    # guard band: within band/B^2 of this interval's end or the next start
    # (none at B = 1, where the first band holds the gap).  At the mirror both
    # take label i + 1's width, and after 0/1, the wrap's mirror, only the second
    band = widths[dens[i + 1]] * den if mirrored else width
    sq = max_denominator * max_denominator
    if (i or not mirrored) and (off - width) * sq < band or (starts[i + 1] * den - x) * sq < band:
        return Unresolved(max_denominator)
    return IRRATIONAL


def _label_index(lay: _Layout, p: int, q: int) -> int:
    """Index of the lowest-terms label p/q <= 1/2, q <= B: the first label
    >= p/q, which is p/q itself since p/q lies in F_B."""
    return bisect_left(range(len(lay.nums)), True,
                       key=lambda j: lay.nums[j] * q >= p * lay.dens[j])


def _start(lay: _Layout, p: int, q: int) -> int:
    """D * Psi_B(p/q) for a lowest-terms label p/q in [0, 1), q <= B; past
    1/2, from its mirror: S_{p/q} = fold - S_{(q-p)/q} - w_q."""
    if 2 * p > q:
        return lay.fold - lay.starts[_label_index(lay, q - p, q)] - lay.widths[q]
    return lay.starts[_label_index(lay, p, q)]


def _band_samples(lay: _Layout, grid: int, max_denominator: int, base: int, mirrored: bool):
    """The band samples k of the forward walk (base 0, k = j) or of the
    walk at the mirrors (base D * grid, k = grid - j), in increasing k:
    sample k sits at base + k * total, positions scaled by D * grid.

    `_locate`'s rule, applied to runs of samples, up to I_{1/2}.  Every
    sample inside an interval resolves, so the walk jumps to the first
    sample past an interval's end, the only one that can lie in the band
    past the end: both bands of a gap are equally wide, so a band before
    the next start holding two samples would be wider than their spacing.
    So only a gap's first and last samples are tested, and the forward
    walk's first yield is its least band sample, the mirrored walk's last
    its largest.  No sample is yielded twice: the gap after a/b, before
    c/d, is 1/(bd) long, at least twice w/B^2 for either width.

    At the mirrors there is no band past I_{0/1}.  It would be D / B^5
    wide and hold a sample only if grid > L_B * B^5, which MAX_GRID allows
    for B <= 7 alone; there the forward walk always yields first, so the
    missing band never decides `_first_unresolved`.
    """
    starts, dens, widths, total = lay.starts, lay.dens, lay.widths, lay.total
    sq = max_denominator * max_denominator
    last = len(starts) - 1
    i = k = 0
    while True:
        x = base + k * total
        i = bisect_right(starts, x // grid, i) - 1
        w = widths[dens[i]] * grid
        end = starts[i] * grid + w
        if x <= end:
            k = (end - base) // total + 1
            x = base + k * total
        if i == last:  # at I_{1/2}: the other walk covers what lies past it
            return
        # k is the least sample past the end of I_i; the gap runs to nxt
        nxt = starts[i + 1] * grid
        if x >= nxt:
            continue
        band = widths[dens[i + 1]] * grid if mirrored else w
        after = -((base - nxt) // total)  # the first k at or past nxt
        if (i or not mirrored) and (x - end) * sq < band:
            yield k
        if (nxt - base - (after - 1) * total) * sq < band:
            yield after - 1
        k = after


@lru_cache(maxsize=64)
def _first_unresolved(grid: int, max_denominator: int) -> Optional[int]:
    """The least j whose sample j/grid is unresolved at precision B, or None:
    the forward walk's first band sample, else grid - k for the last band
    sample k of the walk at the mirrors, the samples past I_{1/2}'s middle.

    At B = 1 there is no walk.  The only gap is (D, 2D), after I_{0/1},
    and its band past the end of I_{0/1}, of width D / 1^2, covers all of
    it.  So the least unresolved sample is the first past D: grid // 2 + 1.
    """
    if max_denominator == 1:
        return grid // 2 + 1
    lay = _layout(max_denominator)
    for j in _band_samples(lay, grid, max_denominator, 0, False):
        return j
    k = max(_band_samples(lay, grid, max_denominator, lay.scale * grid, True), default=None)
    return None if k is None else grid - k


def _inside(s: int, w: int, total: int) -> range:
    """The samples j strictly inside the interval [s, s + w] when sample j
    sits at j * total: s < j * total < s + w, so that 0 < lambda < 1,
    `glue_boundary`'s rule for a point off the basepoint."""
    return range(s // total + 1, (s + w - 1) // total + 1)


def _turns(o1: int, o2: int, w: int) -> int:
    """The turn counted at the step from offset o1 to offset o2 of intervals
    of width w, whose slopes are t1 and t2: +1, -1 or 0.

    The angles 2 atan(t) lie in (-pi, pi], and a step is brought into
    (-pi, pi].  It counts +1 when it falls to -pi or below: t1 > 0 >= t2
    and atan t1 - atan t2 >= pi/2, that is 1 + t1*t2 <= 0.  It counts -1
    when it rises above pi: t1 < 0 < t2 and 1 + t1*t2 < 0.  With
    t = (2o - w) w / (o (w - o)), 1 + t1*t2 has the sign of
    o1 (w - o1) o2 (w - o2) + (2 o1 - w)(2 o2 - w) w^2.  The basepoint,
    angle pi, is o = w (t = +oo), where that sum is w^3 times the other
    sample's 2o - w.  So entering a run from the basepoint counts +1 iff
    2 o2 <= w, and leaving one for it counts -1 iff 2 o1 < w.
    """
    d1, d2 = 2 * o1 - w, 2 * o2 - w
    e = o1 * (w - o1) * o2 * (w - o2) + d1 * d2 * w * w
    if d1 > 0 >= d2:
        return int(e <= 0)
    if d1 < 0 < d2:
        return -int(e < 0)
    return 0


def _winding(b: int, grid: int, max_denominator: int) -> int:
    """The winding number of the walk u = j/grid around the circle that the
    intervals of denominator b wrap onto, counted exactly.

    Every sample off those intervals is at the basepoint, angle pi, and the
    walk is the closed polygon through the angles 2 atan(t) of the samples
    strictly inside an I_{a/b}, each step brought into (-pi, pi].  The raw
    steps sum to 0, so the winding is the number of steps brought up by
    2 pi less the number brought down, each found by `_turns`.  Inside an
    interval t increases, so of its steps only the one across t = 0, from
    j = (2 s + w) // (2 total) to j + 1, can count.  A run's first sample
    steps in from the basepoint, or straight from the last sample of the
    run before when the two are consecutive.  A step of exactly pi is not
    corrected: it counts +1 going down and 0 going up.

    Such a straight step between runs is rare.  Checked over every pair of
    intervals of one denominator at every precision up to MAX_PRECISION and
    every grid from 8 to MAX_GRID, it occurs at five (grid, B, b) only:
    (38, 79, 23), (38, 80, 23), (38, 81, 23) and (173, 299, 95), each with
    t1 > 0 > t2 and counted +1, and (262, 132, 113), with both slopes
    negative.  A step from t1 < 0 to t2 > 0 between runs does not occur
    there.
    """
    lay = _layout(max_denominator)
    total, w = lay.total, lay.widths[b] * grid
    count, last, prev = 0, -2, w  # prev: the last sample's offset; w is the basepoint
    for a in range(b):
        if gcd(a, b) != 1:
            continue
        s = _start(lay, a, b) * grid
        run = _inside(s, w, total)  # j < grid, as I_{a/b} ends before L_B
        if not run:
            continue
        if run.start != last + 1:  # out of the previous run, in from the basepoint
            count += _turns(prev, w, w)
            prev = w
        count += _turns(prev, run.start * total - s, w)
        j = (2 * s + w) // (2 * total)
        if run.start <= j < run.stop - 1:
            off = j * total - s
            count += _turns(off, off + total, w)
        last = run.stop - 1
        prev = last * total - s
    return count + _turns(prev, w, w)


def blowup_total_length(max_denominator: int) -> Fraction:
    """Truncated circle length L_B (exact rational)."""
    lay = _layout(_check_precision(max_denominator))
    return Fraction(lay.total, lay.scale)


def blowup_interval_start(rational, max_denominator: int) -> Fraction:
    """Truncated arc position Psi_B of a blow-up interval's left endpoint."""
    f = as_fraction(rational)
    max_denominator = _check_precision(max_denominator)
    p, q = f.numerator, f.denominator
    if q > max_denominator or not 0 <= p < q:
        raise InvalidParameter("rational exceeds the precision's denominator bound")
    lay = _layout(max_denominator)
    return Fraction(_start(lay, p, q), lay.scale)


def denjoy_xi(u, max_denominator: int) -> DenjoyCoord:
    """Locate the circle point u against the blown-up circle at precision B."""
    num, den = as_fraction(u).as_integer_ratio()
    if not 0 <= num < den:  # the denominator is positive
        raise InvalidParameter("u must lie in [0, 1)")
    max_denominator = _check_precision(max_denominator)
    hit = _locate(num, den, max_denominator)
    if not isinstance(hit, tuple):
        return hit
    a, b, off, width = hit
    return Interval(Fraction(a, b), Fraction(off, width))


def glue_boundary(k: int, coord: DenjoyCoord) -> EarringPoint:
    """Attach the boundary of cone k to the earring.

    An interval of denominator b wraps onto circle k*b; interval ends,
    irrational-type points, and the whole boundary of the degenerate cone
    k = 0 land on the basepoint.  The slope on circle k*b is t(lam), as in
    the module docstring.
    """
    if isinstance(coord, Unresolved):
        raise UnresolvedInput("escalate the blow-up precision before gluing")
    if not isinstance(coord, (Interval, IrrationalPoint)):
        raise InvalidParameter(f"not a blow-up coordinate: {coord!r}")
    k = at_least(k, "cone index", 0)
    if k == 0 or isinstance(coord, IrrationalPoint):
        return BASEPOINT
    lam = coord.lam
    if not (0 < lam < 1):
        return BASEPOINT
    return OnCircle(k * coord.rational.denominator, (2 * lam - 1) / (lam * (1 - lam)))


def winding_count_sampled(k: int, m: int, grid: int, max_denominator: int) -> int:
    """Winding of the glued cone-k boundary around circle A_m, sampled.

    Walks u = j/grid around the circle through the blow-up and the gluing
    and counts the turns of the sampled walk on A_m exactly, in two stages.
    Stage one, `_first_unresolved`, is cached per (grid, B): any
    unresolved sample raises `UnresolvedSample` naming the least one.
    Stage two, `_winding`, runs on every call and tests only the samples
    at the ends and the middle of each run strictly inside an I_{a/b} with
    k*b = m.
    """
    grid = at_least(grid, "grid", 8)
    if grid > MAX_GRID:
        raise InvalidParameter(f"grid must be <= {MAX_GRID}")
    k, m = as_int(k, "cone index"), as_int(m, "circle index")
    if k <= 0 or m <= 0:
        raise InvalidParameter("cone and circle indices must be >= 1")
    max_denominator = _check_precision(max_denominator)
    bad = _first_unresolved(grid, max_denominator)
    if bad is not None:
        raise UnresolvedSample(
            f"grid point {bad}/{grid} unresolved at precision {max_denominator}"
        )
    b, rem = divmod(m, k)
    if rem or b > max_denominator:
        return 0
    return _winding(b, grid, max_denominator)
