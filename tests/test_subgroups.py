import time
from fractions import Fraction as F
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    INF,
    MAX_BALL_POINTS,
    InvalidParameter,
    PointRZ,
    Strip,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    ZeroPoint,
    canonicalize_params,
    classify_from_generators,
    distance_point_to_subgroup,
    elements_in_ball,
    eta_cyclic,
    is_inf,
    level_set,
    membership,
    oracle_closure_ball,
)
from chabauty_rz import subgroups
from chabauty_rz.subgroups import LINE, from_levels, int_levels

from balls import fraction_points
from strategies import fractions_st, generator_lists_st, subgroups_st


class TestFamilies:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            TypeI(F(-1))
        with pytest.raises(InvalidParameter):
            TypeII(F(1), 0)
        with pytest.raises(InvalidParameter):
            TypeIII(F(0), F(0), 1)
        with pytest.raises(InvalidParameter):
            TypeIII(F(1), F(3, 2), 1)
        with pytest.raises(InvalidParameter):
            TypeIII(INF, F(0), 1)
        with pytest.raises(InvalidParameter):
            TypeIV(0)

    def test_canonicalize_beta_mod_one(self):
        H = canonicalize_params("III", alpha=F(2), beta=F(7, 3), n=2)
        assert H == TypeIII(F(2), F(1, 3), 2)

    def test_canonicalize_negative_level(self):
        assert canonicalize_params("II", gamma=F(3, 2), n=-2) == TypeII(F(-3, 2), 2)
        assert canonicalize_params("III", alpha=F(2), beta=F(1, 3), n=-1) == TypeIII(
            F(2), F(2, 3), 1
        )

    def test_canonicalize_rejects_degenerate_lattice(self):
        with pytest.raises(InvalidParameter):
            canonicalize_params("III", alpha=INF, beta=F(0), n=1)
        with pytest.raises(InvalidParameter):
            canonicalize_params("III", alpha=F(0), beta=F(0), n=1)


class TestClassifier:
    def test_empty_generators(self):
        assert classify_from_generators([]) == TypeI(F(0))

    def test_level_zero_generators(self):
        assert classify_from_generators([(F(1, 2), 0), (F(1, 3), 0)]) == TypeI(F(6))

    def test_single_cyclic(self):
        assert classify_from_generators([(F(3, 2), 2)]) == TypeII(F(3, 2), 2)

    def test_rank_two(self):
        H = classify_from_generators([(F(1, 2), 2), (F(1, 3), 3)])
        assert H == TypeIII(F(6, 5), F(4, 5), 1)

    def test_horizontal_line_not_reachable(self):
        # finitely many rational generators always span a discrete group
        H = classify_from_generators([(F(1, 7), 0)])
        assert H == TypeI(F(7))

    @settings(max_examples=150, deadline=None)
    @given(generator_lists_st())
    def test_matches_oracle(self, gens):
        H = classify_from_generators(gens)
        assert elements_in_ball(H, 4) == oracle_closure_ball(gens, 4)

    @settings(max_examples=100, deadline=None)
    @given(generator_lists_st())
    def test_generators_are_members(self, gens):
        H = classify_from_generators(gens)
        for g in gens:
            assert membership(H, g)


class TestLevelSets:
    def test_trivial_group(self):
        assert level_set(TypeI(F(0)), 0) == (F(0), None)
        assert level_set(TypeI(F(0)), 1) is None

    def test_horizontal_line(self):
        assert level_set(TypeI(INF), 0) is LINE
        assert level_set(TypeI(INF), 2) is None

    def test_cyclic(self):
        H = TypeII(F(3, 2), 2)
        assert level_set(H, 4) == (F(3), None)
        assert level_set(H, 3) is None

    def test_lattice(self):
        H = TypeIII(F(6, 5), F(4, 5), 1)
        assert level_set(H, 2) == (F(8, 5) / F(6, 5), F(5, 6))

    def test_full_levels(self):
        assert level_set(TypeIV(3), -6) is LINE
        assert level_set(TypeIV(3), 2) is None

    @settings(max_examples=150, deadline=None)
    @given(subgroups_st(), st.integers(-12, 12))
    def test_int_levels_match_level_set(self, H, m):
        L = int_levels(H)
        D = L.scale
        got = L.at(m)
        want = level_set(H, m)
        if want is None or want is LINE:
            assert got is want
            return
        offset, spacing = want
        if spacing is None:
            assert got == (offset * D, 0)
        else:
            assert got == ((offset * D) % (spacing * D), spacing * D)

    @settings(max_examples=150, deadline=None)
    @given(subgroups_st())
    def test_int_levels_scale_is_least(self, H):
        # The least D that clears the x-coordinates of H's basis, found by
        # Fraction division.
        if isinstance(H, TypeIII):
            xs = [1 / H.alpha, H.beta / H.alpha]
        elif isinstance(H, TypeII):
            xs = [H.gamma]
        elif isinstance(H, TypeI) and not is_inf(H.alpha) and H.alpha:
            xs = [1 / H.alpha]
        else:
            xs = []
        assert int_levels(H).scale == lcm(1, *(x.denominator for x in xs))

    @settings(max_examples=150, deadline=None)
    @given(subgroups_st())
    def test_from_levels_inverts_int_levels(self, H):
        assert from_levels(int_levels(H)) == H


class TestBallsAndDistances:
    def test_cyclic_ball(self):
        got = elements_in_ball(TypeII(F(3, 2), 2), 4)
        want = {
            PointRZ(F(k) * F(3, 2), 2 * k) for k in range(-2, 3)
        }
        assert fraction_points(got) == want
        assert len(got.points) == 5
        assert not got.strips

    def test_strip_ball(self):
        got = elements_in_ball(TypeIV(2), 3)
        assert got.strips == {Strip(-2, F(3)), Strip(0, F(3)), Strip(2, F(3))}
        assert not got.points

    def test_point_distance_same_level(self):
        assert distance_point_to_subgroup((F(1, 4), 0), TypeI(F(2))) == F(1, 4)

    def test_point_distance_level_dominates(self):
        # nearest occupied level is 0; the level gap sets the max-metric
        assert distance_point_to_subgroup((F(0), 1), TypeI(INF)) == 1

    def test_point_distance_searches_levels(self):
        H = TypeII(F(5), 1)
        # level 1 carries x = 5; level 0 carries x = 0: the origin wins
        assert distance_point_to_subgroup((F(1, 2), 1), H) == 1

    @settings(max_examples=100, deadline=None)
    @given(subgroups_st(), st.integers(1, 6))
    def test_ball_points_are_members(self, H, r):
        ball = elements_in_ball(H, r)
        for p in fraction_points(ball):
            assert membership(H, p)
            assert distance_point_to_subgroup(p, H) == 0

    @settings(max_examples=100, deadline=None)
    @given(subgroups_st())
    def test_identity_always_present(self, H):
        ball = elements_in_ball(H, 1)
        assert PointRZ(F(0), 0) in fraction_points(ball) or Strip(0, F(1)) in ball.strips

    def test_ball_over_the_cap_raises_quickly(self):
        # 2 * 10^9 + 1 strips, refused on their level count
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match=str(MAX_BALL_POINTS)):
            elements_in_ball(TypeIV(1), 10**9)
        # one point more than the cap
        with pytest.raises(InvalidParameter, match=f"{MAX_BALL_POINTS + 1} points"):
            elements_in_ball(TypeI(F(1)), MAX_BALL_POINTS // 2)
        assert time.perf_counter() - start < 0.5

    def test_rows_past_two_to_the_63_are_counted_not_measured(self):
        # len() of a range this long raises OverflowError
        with pytest.raises(InvalidParameter, match=f"{2 * 10**19 + 1} points.*MAX_BALL_POINTS"):
            elements_in_ball(TypeI(10**19), 1)

    @settings(max_examples=150, deadline=None)
    @given(subgroups_st(), st.integers(1, 5))
    def test_checked_count_is_the_number_of_points(self, H, r):
        counts = []
        with mock.patch.object(subgroups, "check_ball_size",
                               lambda count, what, r: counts.append((what, count))):
            ball = elements_in_ball(H, r)
        if not ball.strips:
            assert counts[-1] == ("points", len(ball.points))

    def test_single_point_levels_do_not_count_against_the_cap(self):
        # two million levels in reach, but only the origin lies in the ball
        got = elements_in_ball(TypeII(F(10**7), 1), 10**6)
        assert fraction_points(got) == {PointRZ(F(0), 0)}


class TestEtaCyclic:
    def test_sign_normalization(self):
        g, H = eta_cyclic(F(1, 2), -3)
        assert g == PointRZ(F(-1, 2), 3)
        assert H == TypeII(F(-1, 2), 3)

    def test_level_zero_flips_to_positive_x(self):
        g, H = eta_cyclic(F(-2, 3), 0)
        assert g == PointRZ(F(2, 3), 0)
        assert H == TypeI(F(3, 2))

    def test_rejects_origin(self):
        with pytest.raises(ZeroPoint):
            eta_cyclic(F(0), 0)

    @settings(max_examples=150, deadline=None)
    @given(fractions_st(), st.integers(-5, 5))
    def test_involution(self, x, n):
        if x == 0 and n == 0:
            n = 1
        assert eta_cyclic(x, n) == eta_cyclic(-x, -n)
