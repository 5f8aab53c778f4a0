import time
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    MAX_BALL_POINTS,
    InvalidParameter,
    PointRZ,
    TypeII,
    classify_from_generators,
    elements_in_ball,
    membership,
    oracle_closure_ball,
    totient,
)
from chabauty_rz import oracle
from chabauty_rz.oracle import lattice_basis
from chabauty_rz.subgroups import int_levels

from references import ENTRIES
from references.balls import fraction_points, oracle_closure_ball_sweep
from strategies import generator_lists_st


class TestSweepOracle:
    def test_level_zero_pair(self):
        got = oracle_closure_ball_sweep([(F(1, 2), 0), (F(1, 3), 0)], 1)
        want = {PointRZ(F(k, 6), 0) for k in range(-6, 7)}
        assert fraction_points(got) == want
        assert len(got.points) == 13

    def test_empty_generators(self):
        got = oracle_closure_ball_sweep([], 5)
        assert fraction_points(got) == {PointRZ(F(0), 0)}

    def test_single_cyclic(self):
        got = oracle_closure_ball_sweep([(F(3, 2), 2)], 4)
        assert fraction_points(got) == fraction_points(
            elements_in_ball(TypeII(F(3, 2), 2), 4)
        )
        assert len(got.points) == 5

    def test_radius_validation(self):
        with pytest.raises(InvalidParameter):
            oracle_closure_ball_sweep([(F(1), 0)], 0)


class TestLatticeOracle:
    def test_matches_sweep_on_tame_inputs(self):
        ENTRIES["ball-sweep"].run()

    def test_feasible_where_sweep_is_not(self):
        # minimal Bezout coefficients here are in the hundreds
        gens = [(F(1, 11), 0), (F(1, 12), 0)]
        got = oracle_closure_ball(gens, 1)
        assert PointRZ(F(1, 132), 0) in fraction_points(got)
        assert len(got.points) == 265

    @settings(max_examples=60, deadline=None)
    @given(generator_lists_st(), st.integers(1, 4))
    def test_points_in_radius(self, gens, r):
        for p in fraction_points(oracle_closure_ball(gens, r)):
            assert abs(p.x) <= r and abs(p.level) <= r

    @settings(max_examples=100, deadline=None)
    @given(generator_lists_st(), st.integers(1, 4))
    def test_scale_is_the_groups_least_denominator(self, gens, r):
        ball = oracle_closure_ball(gens, r)
        assert ball.scale == int_levels(classify_from_generators(gens)).scale

    @settings(max_examples=100, deadline=None)
    @given(generator_lists_st(), st.integers(1, 4))
    def test_points_are_members(self, gens, r):
        H = classify_from_generators(gens)
        for p in fraction_points(oracle_closure_ball(gens, r)):
            assert membership(H, p)

    def test_ball_over_the_cap_raises_quickly(self):
        # 2 * 10^9 + 1 points at level 0
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match=str(MAX_BALL_POINTS)):
            oracle_closure_ball([(F(1, 1000), 0)], 10**6)
        assert time.perf_counter() - start < 0.5

    def test_rows_past_two_to_the_63_are_counted_not_measured(self):
        # len() of a range this long raises OverflowError
        with pytest.raises(InvalidParameter, match=f"{2 * 10**19 + 1} points.*MAX_BALL_POINTS"):
            oracle_closure_ball([(F(1, 10**19), 0)], 1)

    @settings(max_examples=150, deadline=None)
    @given(generator_lists_st(), st.integers(1, 5))
    def test_checked_count_is_the_number_of_points(self, gens, r):
        counts = []
        with mock.patch.object(oracle, "check_ball_size",
                               lambda count, what, r: counts.append((what, count))):
            ball = oracle_closure_ball(gens, r)
        if counts:
            assert counts[-1] == ("points", len(ball.points))


class TestLatticeBasis:
    @pytest.mark.parametrize("rows, want", [
        ([(1, 1), (2, 2)], (None, (1, 1))),
        ([(3, 0), (5, 0)], (1, None)),
        ([(4, 2), (3, 3)], (6, (5, 1))),
        ([(3, 2), (-5, 2), (7, 0)], (1, (0, 2))),
        ([(1, -1)], (None, (-1, 1))),
        ([(0, 0)], (None, None)),
    ])
    def test_known_bases(self, rows, want):
        assert lattice_basis(rows) == want

    def test_matches_sympy_hnf(self):
        pytest.importorskip("sympy.matrices.normalforms")
        ENTRIES["hnf"].run()


class TestTotient:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            totient(0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400))
    def test_matches_gcd_enumeration(self, b):
        assert totient(b) == sum(1 for a in range(b) if gcd(a, b) == 1)
