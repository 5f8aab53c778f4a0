import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
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
    blowup_total_length,
    denjoy_xi,
    glue_boundary,
    totient,
    winding_count,
    winding_count_sampled,
)
from chabauty_rz.denjoy import (
    _LAYOUTS,
    MAX_GRID,
    MAX_HELD_LABELS,
    MAX_PRECISION,
    _band_samples,
    _first_unresolved,
    _inside,
    _label_index,
    _layout,
    _locate,
    _turns,
    _winding,
    blowup_interval_start,
)

from references import ENTRIES, MIRRORED_KEYS, first_unresolved, outcome
from references.blowup import full_layout, gap_band, mirrored_points, ref_layout, ref_wind


class TestAgainstReference:
    def test_location(self):
        ENTRIES["xi"].run()

    def test_layout_and_band_edges(self):
        ENTRIES["layout"].run()

    @pytest.mark.parametrize("B", [B for B, in ENTRIES["xi-mirrored"].pins])
    def test_reflected_positions_and_the_wrap(self, B):
        labels = ref_layout(B)[0]
        points = mirrored_points(B)
        assert len(points) > 4 * (len(labels) // 2)
        # the mirror of the wrap has no band before L_B: irrational there
        assert denjoy_xi(points[1], B) is IRRATIONAL
        ENTRIES["xi-mirrored"].check(B)

    def test_sampled_winding(self):
        ENTRIES["wind-sampled"].run()


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
    # the slope t that glue_boundary gives a point lam of I_{1/3} on circle 3
    def test_midpoint_is_zero(self):
        assert glue_boundary(1, Interval(F(1, 3), F(1, 2))) == OnCircle(3, F(0))

    def test_strictly_increasing(self):
        lams = [F(j, 10) for j in range(1, 10)]
        ts = [glue_boundary(1, Interval(F(1, 3), lam)).t for lam in lams]
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

    def test_float_fields_are_read_exactly(self):
        assert Interval(0.5, 0.5) == Interval(F(1, 2), F(1, 2))
        assert glue_boundary(1, Interval(0.5, 0.5)) == OnCircle(2, F(0))

    def test_labels_and_lambdas_out_of_range_are_refused(self):
        with pytest.raises(InvalidParameter, match=r"^interval label must lie in \[0, 1\)$"):
            glue_boundary(1, Interval(F(3, 2), F(1, 2)))
        for label in (F(-1, 2), F(1), 1):
            with pytest.raises(InvalidParameter, match="interval label"):
                Interval(label, F(1, 2))
        for lam in (F(-1), F(-1, 10**9), F(3, 2)):
            with pytest.raises(InvalidParameter, match=r"^lambda must lie in \[0, 1\]$"):
                Interval(F(1, 2), lam)
        assert Interval(0, 0) == Interval(F(0), F(0))
        assert Interval(F(2, 3), 1).lam == 1

    def test_what_is_not_a_coordinate_is_refused(self):
        with pytest.raises(InvalidParameter, match=r"^not a blow-up coordinate: 'x'$"):
            glue_boundary(1, "x")
        with pytest.raises(InvalidParameter, match="is not a rational number"):
            Interval("x", F(1, 2))
        with pytest.raises(InvalidParameter, match="is not a rational number"):
            Interval(F(1, 2), "x")
        with pytest.raises(InvalidParameter, match="precision_used must be an integer"):
            Unresolved("x")


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

    def test_exact_count_is_totient(self):
        ENTRIES["winding-count"].run()


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

    def test_calls_in_sequence(self):
        ENTRIES["wind-sampled-in-sequence"].run()


class TestKernelAgainstLoops:
    """The blow-up kernel, which works by runs of samples over half the
    layout, against the plain loops it replaced."""

    @pytest.mark.parametrize("B", [B for B, in ENTRIES["farey-layout"].pins])
    def test_mirrored_layout(self, B):
        ENTRIES["farey-layout"].check(B)

    def test_stage_one(self):
        ENTRIES["stage-one"].run()
        keys = ENTRIES["stage-one"].pins
        assert len(keys) >= 1500
        for (grid, B), j in MIRRORED_KEYS.items():
            lay = _layout(B)
            assert 2 * j * lay.total > lay.fold * grid  # past the middle
            assert first_unresolved(grid, B) == j
        bands = Counter()
        for grid, B in keys:
            j = first_unresolved(grid, B)
            if j is not None:
                bands[gap_band(grid, B, j)] += 1
        # both bands answer, the right one also past the gap's first sample;
        # a sample in the left band is never the least unless it is the first
        assert bands["left", True] and bands["right", False]
        assert not bands["left", False]

    def test_band_samples_are_unresolved(self):
        # sample k of the forward walk is j = k, of the walk at the mirrors
        # j = grid - k; each walk yields in increasing k
        rng = random.Random(23)
        yielded = 0
        for _ in range(400):
            grid, B = rng.randint(8, 6000), rng.randint(2, 120)
            lay = _layout(B)
            for base, mirrored in ((0, False), (lay.scale * grid, True)):
                ks = list(_band_samples(lay, grid, B, base, mirrored))
                assert ks == sorted(set(ks))
                for k in ks:
                    j = grid - k if mirrored else k
                    assert 0 <= j < grid
                    assert isinstance(_locate(j, grid, B), Unresolved), (grid, B, k, mirrored)
                yielded += len(ks)
        assert yielded > 500

    def test_no_band_past_i_0_at_the_mirrors(self):
        # at the mirrors the gap after I_{0/1} is the wrap's mirror, and the
        # wrap has no band before L_B; k = 1 lies within w/B^2 of I_{0/1}'s
        # mirrored end, w the width of the label after it, but j = 99 is irrational
        grid, B = 100, 2
        lay = _layout(B)
        assert 1 * lay.total * B * B < lay.widths[lay.dens[1]] * grid
        assert _locate(99, grid, B) is IRRATIONAL
        assert list(_band_samples(lay, grid, B, lay.scale * grid, True)) == [23]
        assert isinstance(_locate(grid - 23, grid, B), Unresolved)

    def test_stage_one_at_precision_one(self):
        ENTRIES["stage-one-at-precision-one"].run()
        # the band past I_{0/1} covers the one gap: the first sample past D
        for grid in range(8, 4097):
            assert first_unresolved(grid, 1) == grid // 2 + 1

    @pytest.mark.parametrize("grid,B", ENTRIES["stage-two"].pins)
    def test_stage_two(self, grid, B):
        ENTRIES["stage-two"].check(grid, B)

    def test_coarse_grids(self):
        ENTRIES["stage-two-coarse"].run()
        # steps longer than pi are common on coarse grids, so many counts
        # differ from totient(b), the limit of fine grids
        keys = ENTRIES["stage-two-coarse"].pins
        assert sum(_winding(*key) != totient(key[0]) for key in keys) > 200


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
