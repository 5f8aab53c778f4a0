import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    INF,
    MAX_BALL_POINTS,
    DistanceBracket,
    InvalidParameter,
    InvalidSequence,
    ToleranceInvalid,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    classify_from_generators,
    chabauty_distance,
    distance_point_to_subgroup,
    distance_witness,
    hausdorff_inclusion_ok,
    is_inf,
    level_set,
    membership,
    parse_subgroup,
    side_sup,
    subgroup_subset,
    verify_limit,
)

from chabauty_rz.metric import _common_levels
from chabauty_rz.subgroups import LINE, from_levels, int_levels
from chabauty_rz.suites import run_suite

from strategies import generator_lists_st, subgroups_st

TOL = F(1, 1000)


@st.composite
def same_group_rescaled(draw):
    """A group and itself, read back from its levels at a larger scale."""
    H = draw(subgroups_st())
    L = int_levels(H)
    return H, from_levels(L.over(draw(st.integers(2, 6)) * L.scale))


class TestHandDistances:
    def test_line_to_full_group(self):
        # R x {0} vs R x Z: the missing level-1 line fixes the distance at 1
        br = chabauty_distance(TypeI(INF), TypeIV(1), TOL)
        assert br.lo <= 1 <= br.hi
        assert br.hi - br.lo <= TOL

    def test_integer_lattices(self):
        br = chabauty_distance(TypeI(F(1)), TypeI(F(2)), TOL)
        assert br.lo <= F(1, 2) <= br.hi

    def test_identity_of_indiscernibles(self):
        H = TypeIII(F(6, 5), F(4, 5), 1)
        assert chabauty_distance(H, H, TOL) == DistanceBracket(F(0), F(0))

    def test_distinct_groups_have_positive_distance(self):
        br = chabauty_distance(TypeII(F(0), 2), TypeII(F(0), 3), TOL)
        assert br.hi > 0 and br != (0, 0)


#: Pairs with their exact distances: close lattices, a sheared pair, strips.
EXACT = [
    ("I(alpha=10)", "I(alpha=11)", F(1, 22)),
    ("I(alpha=1)", "I(alpha=2)", F(1, 2)),
    ("III(alpha=20,beta=0,n=1)", "III(alpha=21,beta=0,n=1)", F(1, 42)),
    ("I(alpha=1000)", "I(alpha=1001)", F(1, 2002)),
    ("III(alpha=4,beta=1/3,n=1)", "III(alpha=5,beta=2/5,n=1)", F(37, 300)),
    ("I(alpha=inf)", "IV(n=1)", F(1)),
    # One point per level far from 0, dense lattices against sparse groups
    # and a strip over a dense lattice: each answers in bounded work only
    # through a bound on the levels (|x|, or half B's spacing) or the stop
    # at 1.
    ("II(gamma=10000000000,n=1)", "I(alpha=1)", F(1)),
    ("II(gamma=-10000000000,n=3)", "I(alpha=7/3)", F(6, 7)),
    ("III(alpha=1000000,beta=0,n=1)", "II(gamma=0,n=1)", F(1)),
    ("III(alpha=100000,beta=0,n=1)", "II(gamma=1/3,n=1)", F(1)),
    ("IV(n=1)", "III(alpha=10000000000,beta=0,n=1)", F(1, 20000000000)),
    ("III(alpha=62/1128827,beta=0,n=58)", "III(alpha=4743898516,beta=0,n=58)", F(1)),
    ("II(gamma=0,n=1)", "III(alpha=1000000000,beta=1/2,n=1)", F(1)),
]


def check_witness(H, K):
    """Check ``distance_witness(H, K)`` against the Fraction oracle and
    both sides; returns its value."""
    w = distance_witness(H, K)
    assert w.value == chabauty_distance(H, K, TOL).lo
    assert w.value == max(side_sup(H, K).value, side_sup(K, H).value)
    p = w.point
    if w.value == 0:
        assert p is None and H == K
        return w.value
    assert membership(w.inner, p)
    size = max(abs(p.x), abs(p.level))
    assert min(1 / F(size), distance_point_to_subgroup(p, w.outer)) == w.value
    return w.value


class TestExactDistances:
    @pytest.mark.parametrize("left,right,d", EXACT)
    def test_exact_value(self, left, right, d):
        H, K = parse_subgroup(left), parse_subgroup(right)
        assert chabauty_distance(H, K, TOL) == DistanceBracket(d, d)
        assert chabauty_distance(K, H, TOL) == DistanceBracket(d, d)

    @pytest.mark.parametrize("left,right,d", EXACT)
    def test_witness_attains_distance(self, left, right, d):
        H, K = parse_subgroup(left), parse_subgroup(right)
        assert check_witness(H, K) == d

    @settings(max_examples=300, deadline=None)
    @given(subgroups_st(), subgroups_st())
    def test_witness_attains_distance_on_drawn_pairs(self, H, K):
        check_witness(H, K)

    @settings(max_examples=300, deadline=None)
    @given(subgroups_st(), subgroups_st())
    # Maximisers left of 0 on a level above 0:
    @example(TypeIII(F(3, 4), F(4, 5), 1), TypeIII(F(2, 3), F(1, 2), 1))
    @example(TypeIII(F(1, 9), F(1, 6), 3), TypeII(F(3, 2), 3))
    # Maximiser on a level where the other group is empty:
    @example(TypeII(F(1), 4), TypeIII(F(1, 8), F(6, 7), 1))
    # Maximisers found by solving g*k = oB +- t - o (mod s) for a class:
    @example(TypeI(F(7, 2)), TypeI(F(7, 9)))
    @example(TypeIII(F(2, 3), F(0), 1), TypeIII(F(2), F(5, 7), 1))
    # One point per level, far from 0: the level loop stops on |x|.
    @example(TypeII(F(10**10), 1), TypeI(F(1)))
    @example(TypeII(F(-10**10), 3), TypeI(F(7, 3)))
    def test_agrees_with_inclusion_predicate(self, H, K):
        # The predicate breaks exactly for eps <= d and holds above it.
        br = chabauty_distance(H, K, TOL)
        assert br.lo == br.hi
        if br.lo > 0:
            assert not (
                hausdorff_inclusion_ok(H, K, br.lo)
                and hausdorff_inclusion_ok(K, H, br.lo)
            )
        eps = br.hi + F(1, 10**9)
        assert hausdorff_inclusion_ok(H, K, eps) and hausdorff_inclusion_ok(K, H, eps)

    def test_distance_over_the_work_cap_raises(self):
        # A dense lattice against a sparse one: d is near 1 but not 1, and
        # the walk along level 0 would visit about 2 * 10^6 points.
        with pytest.raises(InvalidParameter, match=str(MAX_BALL_POINTS)):
            chabauty_distance(TypeI(F(2000001, 2)), TypeI(F(1, 10**7)), TOL)

    def test_work_is_charged_by_the_size_of_the_scale(self):
        # The same shape of pair with 1000-digit literals: each candidate
        # costs 52 units at a scale of 3320 bits, so the refusal comes
        # after about 19000 candidates, not 10^6.
        p = 10**999
        H, K = TypeI(F(2 * p + 1, 2)), TypeI(F(1, 10**1007))
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match=str(MAX_BALL_POINTS)):
            chabauty_distance(H, K, TOL)
        assert time.perf_counter() - start < 10


class TestPredicate:
    def test_always_true_at_two(self):
        assert hausdorff_inclusion_ok(TypeIV(1), TypeI(F(0)), 2)

    def test_strict_neighbourhood(self):
        # (1/2)Z vs Z: the half-integer points sit at exactly 1/2
        assert not hausdorff_inclusion_ok(TypeI(F(2)), TypeI(F(1)), F(1, 2))
        assert hausdorff_inclusion_ok(TypeI(F(2)), TypeI(F(1)), F(1, 2) + F(1, 100))

    def test_strip_against_lattice(self):
        H = TypeIII(F(4), F(0), 1)  # contains (1/4)Z x {0}... spacing 1/4
        assert hausdorff_inclusion_ok(TypeI(INF), H, F(1, 7))
        assert not hausdorff_inclusion_ok(TypeI(INF), H, F(1, 9))

    def test_invalid_eps(self):
        with pytest.raises(ToleranceInvalid):
            hausdorff_inclusion_ok(TypeI(F(1)), TypeI(F(1)), 0)

    def test_ball_over_the_cap_raises_quickly(self):
        # the ball of I(1000) at radius 10^6 holds 2 * 10^9 + 1 points
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match=str(MAX_BALL_POINTS)):
            hausdorff_inclusion_ok(TypeI(F(1000)), TypeI(F(1001)), F(1, 10**6))
        assert time.perf_counter() - start < 0.5

    def test_ball_past_two_to_the_63_is_refused(self):
        # a row of the ball at radius (2^64 + 1)/7 is too long for len()
        with pytest.raises(InvalidParameter, match="MAX_BALL_POINTS"):
            hausdorff_inclusion_ok(TypeI(2), TypeI(1), F(7, 2**64 + 1))

    @settings(max_examples=80, deadline=None)
    @given(subgroups_st(), subgroups_st(), st.integers(1, 6))
    def test_monotone_in_eps(self, H, K, d):
        eps = F(1, d)
        chain = [
            hausdorff_inclusion_ok(H, K, eps * j) for j in range(1, 9)
        ]
        # once true, stays true
        assert all(b or not a for a, b in zip(chain, chain[1:]))


def reference_subset(H, H2) -> bool:
    """H subset of H2 in Fraction arithmetic: each generator of H (or its
    line) lies in H2, by ``membership`` and ``level_set``."""
    if isinstance(H, TypeI):
        if is_inf(H.alpha):
            return level_set(H2, 0) is LINE
        if H.alpha == 0:
            return True
        return membership(H2, (1 / H.alpha, 0))
    if isinstance(H, TypeII):
        return membership(H2, (H.gamma, H.n))
    if isinstance(H, TypeIII):
        return membership(H2, (1 / H.alpha, 0)) and membership(
            H2, (H.beta / H.alpha, H.n)
        )
    if isinstance(H, TypeIV):
        return isinstance(H2, TypeIV) and H.n % H2.n == 0
    raise TypeError(f"not a subgroup value: {H!r}")


@st.composite
def subset_pairs_st(draw):
    """A pair (H, K) with H inside K by construction."""
    kind = draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    if kind == 0:
        gens = draw(generator_lists_st())
        more = draw(generator_lists_st())
        return classify_from_generators(gens), classify_from_generators(gens + more)
    if kind == 1:
        return TypeIV(draw(st.integers(1, 6)) * n), TypeIV(n)
    if kind == 2:
        return TypeI(INF), TypeIV(n)
    gens = draw(generator_lists_st())
    return classify_from_generators([(x, n * m) for x, m in gens]), TypeIV(n)


class TestSubsetFastPath:
    def test_examples(self):
        assert subgroup_subset(TypeI(F(1)), TypeI(F(2)))
        assert not subgroup_subset(TypeI(F(2)), TypeI(F(1)))
        assert subgroup_subset(TypeII(F(3, 2), 2), TypeIII(F(2), F(0), 2))
        assert subgroup_subset(TypeIII(F(4), F(0), 1), TypeIV(1))
        assert subgroup_subset(TypeIV(4), TypeIV(2))
        assert not subgroup_subset(TypeIV(2), TypeIV(4))
        assert subgroup_subset(TypeI(INF), TypeIV(3))
        assert not subgroup_subset(TypeIV(3), TypeI(INF))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(subgroups_st(), subgroups_st()), same_group_rescaled()))
    def test_equal_levels_at_the_common_scale_are_equal_groups(self, pair):
        H, K = pair
        A, B = _common_levels(H, K)
        assert (A == B) == (H == K)
        assert (chabauty_distance(H, K, TOL).hi == 0) == (H == K)

    @settings(max_examples=80, deadline=None)
    @given(subgroups_st(), subgroups_st())
    def test_subset_gives_one_sided_zero(self, H, K):
        if subgroup_subset(H, K):
            assert hausdorff_inclusion_ok(H, K, F(1, 50))

    @settings(max_examples=300, deadline=None)
    @given(subgroups_st(), subgroups_st())
    def test_matches_reference_on_drawn_pairs(self, H, K):
        assert subgroup_subset(H, K) == reference_subset(H, K)

    @settings(max_examples=300, deadline=None)
    @given(subset_pairs_st())
    def test_matches_reference_on_constructed_subsets(self, pair):
        H, K = pair
        assert subgroup_subset(H, K) and reference_subset(H, K)
        assert subgroup_subset(K, H) == reference_subset(K, H)


class TestDistanceProperties:
    @settings(max_examples=40, deadline=None)
    @given(subgroups_st(), subgroups_st())
    def test_symmetry(self, H, K):
        assert chabauty_distance(H, K, TOL) == chabauty_distance(K, H, TOL)

    @settings(max_examples=20, deadline=None)
    @given(subgroups_st(), subgroups_st(), subgroups_st())
    def test_triangle(self, H, K, J):
        hk = chabauty_distance(H, K, TOL)
        hj = chabauty_distance(H, J, TOL)
        jk = chabauty_distance(J, K, TOL)
        assert hk.lo <= hj.hi + jk.hi

    @settings(max_examples=60, deadline=None)
    @given(subgroups_st(), subgroups_st())
    def test_zero_iff_equal(self, H, K):
        br = chabauty_distance(H, K, TOL)
        assert (br == (0, 0)) == (H == K)

    def test_invalid_tolerance(self):
        with pytest.raises(ToleranceInvalid):
            chabauty_distance(TypeI(F(1)), TypeI(F(2)), 0)


def test_metric_suite_checks_the_kernel_against_its_oracle():
    report = run_suite("metric", 0, 20)
    oracle = [c for c in report.cases if c.id.startswith("oracle-")]
    positive = [c for c in report.cases
                if c.id.startswith("symmetry-") and "lo=Fraction(0, 1)" not in c.detail]
    assert len(oracle) == len(positive) > 0
    assert all(c.passed for c in oracle)


class TestVerifyLimit:
    def test_passing_sequence(self):
        seq = [TypeII(F(k), 1) for k in (8, 16, 32, 64)]
        report = verify_limit(seq, TypeI(F(0)), F(1, 10), tail=2)
        assert report.passed
        assert len(report.distances) == 4

    def test_failing_sequence(self):
        seq = [TypeII(F(1), 1)] * 3
        report = verify_limit(seq, TypeI(F(0)), F(1, 10), tail=3)
        assert not report.passed

    def test_rejects_empty(self):
        with pytest.raises(InvalidSequence):
            verify_limit([], TypeI(F(0)), F(1, 10), tail=1)

    def test_rejects_bad_tail(self):
        with pytest.raises(InvalidSequence):
            verify_limit([TypeI(F(1))], TypeI(F(0)), F(1, 10), tail=2)
