"""The reference blow-up, in Fractions from the definition, and the plain
loops that the blow-up kernel replaced."""

from bisect import bisect_right
from fractions import Fraction as F
from functools import lru_cache
from itertools import accumulate
from math import atan, lcm, pi

from chabauty_rz import IRRATIONAL, Interval, OnCircle, Unresolved, UnresolvedSample
from chabauty_rz import denjoy_xi, glue_boundary
from chabauty_rz.denjoy import _layout


# -- reference blow-up, in Fractions, from the definition ----------------------

@lru_cache(maxsize=None)
def ref_layout(B):
    """Labels a/b in [0, 1) with b <= B, their widths 1/b^3, Psi_B and L_B."""
    labels = sorted({F(a, b) for b in range(1, B + 1) for a in range(b)})
    widths = [F(1, s.denominator ** 3) for s in labels]
    below = [F(0)] + list(accumulate(widths))  # widths of the labels below
    starts = [s + w for s, w in zip(labels, below)]
    return labels, widths, starts, 1 + below[-1]


def ref_xi(u, B):
    labels, widths, starts, total = ref_layout(B)
    pos = u * total
    i = max(j for j, s in enumerate(starts) if s <= pos)
    end = starts[i] + widths[i]
    if pos <= end:
        return Interval(labels[i], (pos - starts[i]) / widths[i])
    guard = widths[i] / B ** 2
    if pos - end < guard or (i + 1 < len(starts) and starts[i + 1] - pos < guard):
        return Unresolved(B)
    return IRRATIONAL


def ref_wind(k, m, grid, B):
    """The sampled walk, one denjoy_xi and one glue_boundary per sample."""
    angles = []
    for j in range(grid):
        coord = denjoy_xi(F(j, grid), B)
        if isinstance(coord, Unresolved):
            raise UnresolvedSample(f"grid point {j}/{grid} unresolved at precision {B}")
        p = glue_boundary(k, coord)
        on_m = isinstance(p, OnCircle) and p.circle == m
        angles.append(2 * atan(p.t) if on_m else pi)
    progress = 0.0
    for j in range(grid):
        d = angles[(j + 1) % grid] - angles[j]
        while d <= -pi:
            d += 2 * pi
        while d > pi:
            d -= 2 * pi
        progress += d
    return round(progress / (2 * pi))


# -- reference kernel pieces: the plain loops the blow-up kernel replaced ------

def ref_farey_layout(B):
    """The layout from the full Farey next-term recurrence, as a tuple."""
    scale = lcm(*range(1, B + 1)) ** 3
    widths = [0] + [scale // b**3 for b in range(1, B + 1)]
    nums, dens, starts = [], [], []
    acc = 0
    a, b, c, d = 0, 1, 1, B
    while a < b:  # stops at the term 1/1
        nums.append(a)
        dens.append(b)
        starts.append(a * scale // b + acc)
        acc += widths[b]
        k = (B + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return nums, dens, starts, scale + acc, scale, widths


def full_layout(B):
    """The half layout expanded to every label by the reflection: the
    mirror of I_{a/b}, 0 < a/b < 1/2, is I_{(b-a)/b} at fold - S - w_b."""
    lay = _layout(B)
    nums, dens, starts = list(lay.nums), list(lay.dens), list(lay.starts)
    for i in range(len(lay.nums) - 2, 0, -1):  # every label in (0, 1/2), decreasing
        b = lay.dens[i]
        nums.append(b - lay.nums[i])
        dens.append(b)
        starts.append(lay.fold - lay.starts[i] - lay.widths[b])
    return nums, dens, starts, lay.total, lay.scale, lay.widths


_farey_layout = lru_cache(maxsize=None)(ref_farey_layout)  # per B, for stage one


def ref_first_unresolved(grid, B):
    """Stage one sample by sample, each located on the full Farey layout by
    `ref_xi`'s band rule, in integers scaled by D * grid: both bands of the
    gap after label i are w_i/B^2 wide, and the gap that wraps round to 0
    has only the band past its interval."""
    _, dens, starts, total, _, widths = _farey_layout(B)
    sq, last = B * B, len(starts) - 1
    for j in range(grid):
        pos = j * total
        i = bisect_right(starts, pos // grid) - 1
        w = widths[dens[i]] * grid
        off = pos - starts[i] * grid
        if off > w and ((off - w) * sq < w or i < last and (starts[i + 1] * grid - pos) * sq < w):
            return j
    return None


def ref_progress(b, grid, B):
    """Stage two as a dict of angles by sample and a sorted walk of steps,
    summed in floats."""
    _, dens, starts, total, _, widths = full_layout(B)
    w = widths[b] * grid
    angles = {}
    for den, start in zip(dens, starts):
        if den == b:
            s = start * grid
            for j in range(s // total + 1, (s + w - 1) // total + 1):
                off = j * total - s
                angles[j] = 2 * atan((2 * off - w) * w / (off * (w - off)))
    progress = 0.0
    for j in sorted({i - 1 for i in angles} | angles.keys()):
        d = angles.get(j + 1, pi) - angles.get(j, pi)
        while d <= -pi:
            d += 2 * pi
        while d > pi:
            d -= 2 * pi
        progress += d
    return progress


# -- the inputs that matter: band edges, mirrored positions, band sides --------

def gap_band(grid, B, j):
    """Where an unresolved sample j/grid lies in its gap: 'left' is the band
    past the end of the interval before it, 'right' the band before the
    next start.  Also whether j is the gap's first sample."""
    _, dens, starts, total, _, widths = full_layout(B)
    pos = j * total
    i = bisect_right(starts, pos // grid) - 1
    w = widths[dens[i]] * grid
    end = starts[i] * grid + w
    side = "left" if (pos - end) * B * B < w else "right"
    return side, j == end // total + 1


def edge_points(B, i):
    """Points of [0, 1) whose arc positions sit on the edges of I_i's bands."""
    _, widths, starts, total = ref_layout(B)
    guard = widths[i] / B ** 2
    end = starts[i] + widths[i]
    positions = [starts[i], end, end + guard / 2, end + guard]
    if i + 1 < len(starts):
        positions += [starts[i + 1] - guard / 2, starts[i + 1] - guard]
    return [pos / total for pos in positions if pos < total]


def mirrored_points(B):
    """Every band edge of every gap past the middle of I_{1/2}, where the
    position is answered at its mirror, after three points of the wrap gap
    before L_B."""
    labels, widths, starts, total = ref_layout(B)
    fold = 1 + total
    guard = widths[-1] / B ** 2
    wrap = [total - guard, total - guard / 2, total - guard / 10 ** 6]
    points = [pos / total for pos in wrap]
    for i in range(len(labels)):
        points += [u for u in edge_points(B, i) if 2 * u * total > fold]
    return points
