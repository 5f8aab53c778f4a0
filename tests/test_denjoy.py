from fractions import Fraction as F
from functools import lru_cache
from itertools import accumulate
from math import atan, gcd, pi

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
    MAX_GRID,
    MAX_PRECISION,
    _first_unresolved,
    _label_index,
    _layout,
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
        # 0/1, then phi(b) lowest-terms labels a/b in (0, 1) for each b >= 2
        assert len(labels) == 1 + sum(
            sum(gcd(a, b) == 1 for a in range(1, b)) for b in range(2, B + 1))
        assert labels[0] == (0, 1)
        assert all(0 <= a < b <= B and gcd(a, b) == 1 for a, b in labels)
        assert all(a * d < c * b for (a, b), (c, d) in zip(labels, labels[1:]))
        assert all(s < t for s, t in zip(lay.starts, lay.starts[1:]))
        assert lay.starts[-1] + lay.widths[lay.dens[-1]] < lay.total

    @pytest.mark.parametrize("B", [1, 2, 7, 40])
    def test_label_index(self, B):
        lay = _layout(B)
        for i, (a, b) in enumerate(zip(lay.nums, lay.dens)):
            assert _label_index(lay, a, b) == i


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
        with pytest.raises(InvalidParameter):
            denjoy_xi(F(3, 2), 8)
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
