import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import accumulate
from math import atan, gcd, lcm, pi

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    BASEPOINT,
    IRRATIONAL,
    InvalidParameter,
    Interval,
    OnCircle,
    Unresolved,
    UnresolvedInput,
    UnresolvedSample,
    blowup_interval_start,
    blowup_total_length,
    denjoy_xi,
    glue_boundary,
    slope_from_lambda,
    winding_count,
    winding_count_sampled,
)
from chabauty_rz.denjoy import (
    _LAYOUTS,
    MAX_GRID,
    MAX_HELD_LABELS,
    MAX_PRECISION,
    _first_unresolved,
    _inside,
    _label_index,
    _layout,
    _locate,
    _turns,
    _winding,
)


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


def ref_first_unresolved(grid, B):
    """Stage one sample by sample: `_locate` at every grid point."""
    for j in range(grid):
        if isinstance(_locate(j, grid, B), Unresolved):
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def circle_points(draw):
    # small denominators land exactly on guard bands and interval ends;
    # 48-bit ones are generic
    den = draw(st.one_of(st.integers(1, 64), st.integers(2 ** 47, 2 ** 48 - 1)))
    return F(draw(st.integers(0, den - 1)), den)


def edge_points(B, i):
    """Points of [0, 1) whose arc positions sit on the edges of I_i's bands."""
    _, widths, starts, total = ref_layout(B)
    guard = widths[i] / B ** 2
    end = starts[i] + widths[i]
    positions = [starts[i], end, end + guard / 2, end + guard]
    if i + 1 < len(starts):
        positions += [starts[i + 1] - guard / 2, starts[i + 1] - guard]
    return [pos / total for pos in positions if pos < total]


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(circle_points(), st.integers(1, 40))
    @example(F(9, 17), 2)  # guard band past I_0
    @example(F(25, 34), 2)  # middle of I_{1/2}
    def test_location(self, u, B):
        assert denjoy_xi(u, B) == ref_xi(u, B)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_layout_and_band_edges(self, B, data):
        labels, _, starts, total = ref_layout(B)
        assert blowup_total_length(B) == total
        i = data.draw(st.integers(0, len(labels) - 1))
        assert blowup_interval_start(labels[i], B) == starts[i]
        for v in edge_points(B, i):
            assert denjoy_xi(v, B) == ref_xi(v, B)

    @pytest.mark.parametrize("B", [2, 3, 5, 8, 13])
    def test_reflected_positions_and_the_wrap(self, B):
        # every band edge of every gap past the middle of I_{1/2}, where the
        # position is answered at its mirror, and the wrap gap before L_B
        labels, widths, starts, total = ref_layout(B)
        fold = 1 + total
        guard = widths[-1] / B ** 2
        wrap = [total - guard, total - guard / 2, total - guard / 10 ** 6]
        points = [pos / total for pos in wrap]
        for i in range(len(labels)):
            points += [u for u in edge_points(B, i) if 2 * u * total > fold]
        assert len(points) > 4 * (len(labels) // 2)
        for u in points:
            assert denjoy_xi(u, B) == ref_xi(u, B)
        # the mirror of the wrap has no band before L_B: irrational there
        assert denjoy_xi(points[1], B) is IRRATIONAL

    # at B = 1 and 2 every grid from 8 to 200 has an unresolved sample, so
    # those draws compare the UnresolvedSample message; B = 8 resolves some
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(8, 200),
           st.sampled_from([1, 2, 8, 8]))
    def test_sampled_winding(self, k, m, grid, B):
        assert outcome(winding_count_sampled, k, m, grid, B) == outcome(
            ref_wind, k, m, grid, B)


class TestLayoutShape:
    @pytest.mark.parametrize("B", [1, 2, 3, 7, 40, 128])
    def test_labels_and_starts(self, B):
        lay = _layout(B)
        labels = list(zip(lay.nums, lay.dens))
        # 0/1, then the lowest-terms labels a/b in (0, 1/2] for each b >= 2
        assert len(labels) == 1 + sum(
            sum(gcd(a, b) == 1 for a in range(1, b // 2 + 1)) for b in range(2, B + 1))
        assert labels[0] == (0, 1)
        assert all(0 <= 2 * a <= b <= B and gcd(a, b) == 1 for a, b in labels)
        assert all(a * d < c * b for (a, b), (c, d) in zip(labels, labels[1:]))
        assert all(s < t for s, t in zip(lay.starts, lay.starts[1:]))
        assert lay.fold == lay.scale + lay.total
        if B == 1:
            assert lay.mid == lay.total  # past every position: nothing reflects
        else:
            # the middle of I_{1/2} is fold/2, and mid = fold // 2 lies in it
            assert labels[-1] == (1, 2)
            assert 2 * lay.starts[-1] + lay.widths[2] == lay.fold
            assert lay.starts[-1] <= lay.mid <= lay.starts[-1] + lay.widths[2]
        _, dens, starts, total, _, widths = full_layout(B)
        assert starts[-1] + widths[dens[-1]] < total

    @pytest.mark.parametrize("B", [1, 2, 7, 40])
    def test_label_index(self, B):
        lay = _layout(B)
        for i, (a, b) in enumerate(zip(lay.nums, lay.dens)):
            assert _label_index(lay, a, b) == i


class TestLayoutCache:
    """Layouts are kept by their labels, not by their number."""

    def test_held_labels_stay_under_the_cap(self):
        _LAYOUTS.clear()
        for B in (64, 128, 256, 511, 512):
            lay = _layout(B)
            assert sum(len(kept.starts) for kept in _LAYOUTS.values()) <= MAX_HELD_LABELS
            assert _layout(B) is lay  # a second query does not rebuild
        assert list(_LAYOUTS) == [512]

    def test_the_bench_precisions_are_all_kept(self):
        _LAYOUTS.clear()
        layouts = [_layout(B) for B in (64, 128, 256)]
        assert _layout(64) is layouts[0]
        assert list(_LAYOUTS) == [128, 256, 64]  # least recently used first


class TestWorkBounds:
    @pytest.mark.parametrize("B", [0, -3, MAX_PRECISION + 1])
    def test_precision_out_of_range(self, B):
        with pytest.raises(InvalidParameter):
            blowup_total_length(B)
        with pytest.raises(InvalidParameter):
            blowup_interval_start(F(0), B)
        with pytest.raises(InvalidParameter):
            denjoy_xi(F(1, 2), B)
        with pytest.raises(InvalidParameter):
            winding_count_sampled(1, 1, 64, B)

    def test_cap_is_accepted(self):
        # tail over b > 64 is below 1/64
        assert 0 < blowup_total_length(MAX_PRECISION) - blowup_total_length(64) < F(1, 64)


class TestLayout:
    def test_total_lengths(self):
        # L_B = 1 + sum phi(b)/b^3 over b <= B
        assert blowup_total_length(1) == 2
        assert blowup_total_length(2) == F(17, 8)
        assert blowup_total_length(3) == F(475, 216)

    def test_interval_starts(self):
        assert blowup_interval_start(F(0), 2) == 0
        assert blowup_interval_start(F(1, 2), 2) == F(3, 2)
        assert blowup_interval_start(F(1, 3), 3) == F(1, 3) + 1

    def test_start_rejects_deep_rational(self):
        with pytest.raises(InvalidParameter):
            blowup_interval_start(F(1, 5), 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 20))
    def test_total_is_increasing_and_bounded(self, B):
        assert blowup_total_length(B) < blowup_total_length(B + 1)
        # tail over b > B is below 1/B
        assert blowup_total_length(200) - blowup_total_length(B) < F(1, B)


class TestLocation:
    def test_interval_midpoint(self):
        # u chosen so the arc position is the middle of I_{1/2} at B = 2
        got = denjoy_xi(F(25, 34), 2)
        assert got == Interval(F(1, 2), F(1, 2))

    def test_interval_origin(self):
        assert denjoy_xi(F(0), 2) == Interval(F(0), F(0))

    def test_gap_point(self):
        assert denjoy_xi(F(10, 17), 2) is IRRATIONAL

    def test_guard_band(self):
        # just past the right end of I_0: inside the width/B^2 guard
        assert denjoy_xi(F(9, 17), 2) == Unresolved(2)

    def test_domain_checks(self):
        for u in (F(3, 2), F(1), F(-1, 3), -1, "7/4"):
            with pytest.raises(InvalidParameter, match=r"^u must lie in \[0, 1\)$"):
                denjoy_xi(u, 8)
        assert denjoy_xi(0, 8) == Interval(F(0), F(0))
        with pytest.raises(InvalidParameter):
            denjoy_xi(F(1, 2), 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_located_positions_are_consistent(self, j):
        u = F(j, 2**16)
        got = denjoy_xi(u, 16)
        if isinstance(got, Interval):
            start = blowup_interval_start(got.rational, 16)
            width = F(1, got.rational.denominator**3)
            assert u * blowup_total_length(16) == start + got.lam * width
            assert 0 <= got.lam <= 1


class TestSlope:
    def test_midpoint_is_zero(self):
        assert slope_from_lambda(F(1, 2)) == 0

    def test_strictly_increasing(self):
        lams = [F(j, 10) for j in range(1, 10)]
        ts = [slope_from_lambda(l) for l in lams]
        assert all(a < b for a, b in zip(ts, ts[1:]))


class TestGluing:
    def test_interval_wraps_to_circle(self):
        got = glue_boundary(3, Interval(F(1, 2), F(1, 2)))
        assert got == OnCircle(6, F(0))

    def test_degenerate_cone(self):
        assert glue_boundary(0, Interval(F(1, 2), F(1, 2))) is BASEPOINT

    def test_irrational_data(self):
        assert glue_boundary(2, IRRATIONAL) is BASEPOINT

    def test_interval_ends(self):
        assert glue_boundary(2, Interval(F(1, 2), F(0))) is BASEPOINT
        assert glue_boundary(2, Interval(F(1, 2), F(1))) is BASEPOINT

    def test_unresolved_rejected(self):
        with pytest.raises(UnresolvedInput):
            glue_boundary(2, Unresolved(8))


class TestSampledWinding:
    # precision 8 puts wide guard bands around interval ends and most small
    # grids hit one; precision 64 with a 1024 grid stays clear of them
    def test_small_cases(self):
        for k, m in [(1, 1), (1, 2), (1, 4), (2, 2), (2, 4), (2, 3)]:
            assert winding_count_sampled(k, m, 1024, 64) == winding_count(k, m)

    def test_zero_off_multiples(self):
        assert winding_count_sampled(3, 4, 1024, 64) == 0

    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            winding_count_sampled(1, 1, 4, 8)
        with pytest.raises(InvalidParameter):
            winding_count_sampled(1, 1, MAX_GRID + 1, 8)


SMALL_PAIRS = [(k, m) for k in range(1, 7) for m in range(1, 7)]
# every grid point is resolved at (200, 20); at (64, 1) the first
# unresolved one is 33/64 (and at (200, 8) it is 88/200)
RESOLVED = (200, 20)
UNRESOLVED_64_1 = (UnresolvedSample, "grid point 33/64 unresolved at precision 1")


class TestTwoStages:
    """Stage one caches the least unresolved grid point per (grid, B);
    stage two walks only the samples on A_m.  Cold and warm calls, and
    calls at other keys in between, must all give the reference walk."""

    def test_cold_and_warm_match_reference(self):
        for k, m in SMALL_PAIRS:
            want = outcome(ref_wind, k, m, *RESOLVED)
            _first_unresolved.cache_clear()
            assert outcome(winding_count_sampled, k, m, *RESOLVED) == want  # cold
            assert outcome(winding_count_sampled, k, m, *RESOLVED) == want  # warm
        assert _first_unresolved(*RESOLVED) is None
        assert _first_unresolved(200, 8) == 88

    def test_unresolved_key_before_and_after_a_resolved_one(self):
        _first_unresolved.cache_clear()
        assert outcome(ref_wind, 1, 1, 64, 1) == UNRESOLVED_64_1
        for k, m in SMALL_PAIRS:
            assert outcome(winding_count_sampled, k, m, 64, 1) == UNRESOLVED_64_1
        assert winding_count_sampled(1, 1, *RESOLVED) == ref_wind(1, 1, *RESOLVED)
        for k, m in SMALL_PAIRS:
            assert outcome(winding_count_sampled, k, m, 64, 1) == UNRESOLVED_64_1
        assert _first_unresolved(64, 1) == 33

    @pytest.mark.parametrize("k, m", [(2, 3), (4, 6), (6, 1), (1, 21), (2, 42)])
    def test_no_interval_on_the_circle(self, k, m):
        # m % k != 0, or m/k above the precision: every sample at the basepoint
        assert winding_count_sampled(k, m, *RESOLVED) == 0
        assert ref_wind(k, m, *RESOLVED) == 0

    def test_unresolved_wins_over_an_empty_circle(self):
        want = (UnresolvedSample, "grid point 88/200 unresolved at precision 8")
        for k, m in [(1, 9), (2, 3)]:
            assert outcome(winding_count_sampled, k, m, 200, 8) == want
            assert outcome(ref_wind, k, m, 200, 8) == want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(8, 200), st.sampled_from([1, 2, 8, 13, 20]),
           st.lists(st.tuples(st.integers(1, 4), st.integers(1, 12)),
                    min_size=3, max_size=6))
    @example(200, 20, [(1, 1), (2, 2), (1, 3)])
    def test_calls_in_sequence(self, grid, B, pairs):
        for k, m in pairs:
            assert outcome(winding_count_sampled, k, m, grid, B) == outcome(
                ref_wind, k, m, grid, B)


BENCH_KEYS = [(4096, 64), (4096, 128), (4096, 256)]
_draw = random.Random(16)
DRAWN_KEYS = [(_draw.randint(8, 6000), _draw.randint(12, 120)) for _ in range(6)]


#: Keys whose least unresolved sample lies past the middle of I_{1/2}, in
#: the half of the walk that runs over the mirrors.
MIRRORED_KEYS = {(4096, 62): 3039, (4096, 113): 3023, (4096, 156): 3479}


class TestKernelAgainstLoops:
    """The blow-up kernel, which works by runs of samples over half the
    layout, against the plain loops it replaced."""

    @pytest.mark.parametrize("B", list(range(1, 65)) + [128, 255, 256, 512])
    def test_mirrored_layout(self, B):
        assert full_layout(B) == ref_farey_layout(B)

    def test_stage_one(self):
        rng = random.Random(15)
        drawn = {(rng.randint(8, 6000), rng.randint(1, 120)) for _ in range(1550)}
        keys = BENCH_KEYS + list(MIRRORED_KEYS) + sorted(drawn, key=lambda key: key[1])
        assert len(keys) >= 1500
        for (grid, B), j in MIRRORED_KEYS.items():
            lay = _layout(B)
            assert 2 * j * lay.total > lay.fold * grid  # past the middle
            assert _first_unresolved.__wrapped__(grid, B) == j
        bands = Counter()
        for grid, B in keys:
            j = _first_unresolved.__wrapped__(grid, B)  # not the cached answer
            assert j == ref_first_unresolved(grid, B)
            if j is not None:
                bands[gap_band(grid, B, j)] += 1
        # both bands answer, the right one also past the gap's first sample;
        # a sample in the left band is never the least unless it is the first
        assert bands["left", True] and bands["right", False]
        assert not bands["left", False]

    @pytest.mark.parametrize("grid, B", BENCH_KEYS + DRAWN_KEYS)
    def test_stage_two(self, grid, B):
        bs = {m // k for k in range(1, 7) for m in range(1, 13) if m % k == 0}
        for b in sorted(b for b in bs if b <= B):
            assert _winding(b, grid, B) == round(ref_progress(b, grid, B) / (2 * pi))

    def test_coarse_grids(self):
        # steps longer than pi are common on coarse grids, so many counts
        # differ from totient(b), the limit of fine grids
        rng = random.Random(19)
        differ = 0
        for _ in range(150):
            grid, B = rng.randint(8, 300), rng.randint(1, 60)
            for b in rng.sample(range(1, B + 1), min(B, 4)):
                got = _winding(b, grid, B)
                assert got == round(ref_progress(b, grid, B) / (2 * pi)), (grid, B, b)
                differ += got != sum(gcd(a, b) == 1 for a in range(b))
        assert differ > 200


class TestTurns:
    """One witness on integers for each sign rule of the exact count, with
    intervals of width 10: slope t < 0 below offset 5, t > 0 above it.
    The basepoint is offset w, where t = +oo and the angle is pi."""

    def test_entering_a_run(self):
        assert _turns(10, 4, 10) == 1
        assert _turns(10, 5, 10) == 1  # t = 0: a step of exactly -pi counts
        assert _turns(10, 6, 10) == 0

    def test_leaving_a_run(self):
        assert _turns(4, 10, 10) == -1
        assert _turns(5, 10, 10) == 0  # t = 0: a step of exactly pi does not
        assert _turns(6, 10, 10) == 0
        assert _turns(10, 10, 10) == 0  # basepoint to basepoint

    def test_step_up_across_t_zero(self):
        assert _turns(2, 8, 10) == -1  # t1 t2 = -(8/3)^2 < -1
        assert _turns(4, 6, 10) == 0  # t1 t2 = -(5/6)^2 > -1
        assert _turns(5, 8, 10) == 0

    def test_step_down_across_t_zero(self):
        assert _turns(8, 2, 10) == 1
        assert _turns(6, 4, 10) == 0
        assert _turns(8, 5, 10) == 0
        assert _turns(1, 3, 10) == 0  # both slopes negative
        # 1 + t1 t2 = 0 needs t^2 + 4 and 4 t^2 + 1 both rational squares,
        # with t = p/q: no sample reaches that tie for p, q below 3000

    def test_straight_step_between_runs(self):
        # at grid 38, precision 79, samples 33 and 34 lie in I_{17/23} and
        # I_{18/23}, with t1 > 0 > t2, and that step counts +1
        grid, B, b = 38, 79, 23
        nums, dens, starts, total, _, widths = full_layout(B)
        w = widths[b] * grid
        start = {num: s * grid for num, den, s in zip(nums, dens, starts) if den == b}
        assert list(_inside(start[17], w, total)) == [33]
        assert list(_inside(start[18], w, total)) == [34]
        o1, o2 = 33 * total - start[17], 34 * total - start[18]
        assert 2 * o1 > w > 2 * o2 and _turns(o1, o2, w) == 1
        assert _first_unresolved(grid, B) is None
        assert winding_count_sampled(1, b, grid, B) == ref_wind(1, b, grid, B) == 0

    def test_step_across_t_zero_inside_a_run(self):
        # I_{0/1} holds samples 1, 2, 3 at lambda 1927/6912, 1927/3456 and
        # 1927/2304; the step from 1 to 2 turns -1, so the count is 0
        assert list(_inside(0, _layout(4).widths[1] * 8, _layout(4).total)) == [1, 2, 3]
        assert winding_count_sampled(1, 1, 8, 4) == ref_wind(1, 1, 8, 4) == 0


class TestInside:
    """The samples strictly inside [s, s + w] when sample j sits at
    j * total: one on either end has lambda 0 or 1 and is glued to the
    basepoint, so it is left out."""

    def test_ends_are_left_out(self):
        assert list(_inside(30, 45, 10)) == [4, 5, 6, 7]  # s = 3 * total
        assert list(_inside(25, 45, 10)) == [3, 4, 5, 6]  # s + w = 7 * total
        assert list(_inside(30, 40, 10)) == [4, 5, 6]  # both ends
        assert list(_inside(30, 10, 10)) == []  # only the two ends
        assert list(_inside(31, 8, 10)) == []  # no sample at all
        assert list(_inside(31, 9, 10)) == []  # s + w = 4 * total
