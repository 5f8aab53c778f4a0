from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    BASEPOINT,
    INF,
    AxisCoord,
    BoundaryPoint,
    ConePoint,
    InvalidParameter,
    NonCanonicalModelPoint,
    OnCircle,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    chart_psi_I,
    chart_psi_I_inverse,
    chart_psi_II_n,
    chart_psi_II_n_inverse,
    chart_psi_III_n,
    chart_psi_III_n_inverse,
    model_to_subgroup,
    subgroup_to_model,
)

from strategies import fractions_st, subgroups_st


class TestAxisChart:
    def test_roundtrip_endpoints(self):
        for alpha in (F(0), F(5, 3), INF):
            assert chart_psi_I_inverse(chart_psi_I(alpha)) == alpha

    def test_values(self):
        assert chart_psi_I(F(0)) == TypeI(F(0))
        assert chart_psi_I(INF) == TypeI(INF)


class TestCyclicChart:
    def test_circle_point(self):
        # circle b, slope t at chart level n gives the cyclic group Z(b*t, b*n)
        assert chart_psi_II_n(2, OnCircle(3, F(1, 2))) == TypeII(F(3, 2), 6)

    def test_basepoint(self):
        assert chart_psi_II_n(5, BASEPOINT) == TypeI(F(0))

    def test_inverse(self):
        assert chart_psi_II_n_inverse(2, TypeII(F(3, 2), 6)) == OnCircle(3, F(1, 2))
        assert chart_psi_II_n_inverse(2, TypeI(F(0))) == BASEPOINT

    def test_inverse_rejects_level_mismatch(self):
        with pytest.raises(InvalidParameter):
            chart_psi_II_n_inverse(2, TypeII(F(1), 3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), fractions_st())
    def test_roundtrip(self, n, b, t):
        p = OnCircle(b, t)
        assert chart_psi_II_n_inverse(n, chart_psi_II_n(n, p)) == p


class TestConeChart:
    def test_interior(self):
        c = ConePoint(2, F(3, 4), F(1, 3))
        assert chart_psi_III_n(2, c) == TypeIII(F(3, 4), F(1, 3), 2)

    def test_apex(self):
        assert chart_psi_III_n(3, ConePoint(3, INF, F(0))) == TypeIV(3)

    def test_apex_identifies_beta(self):
        assert ConePoint(3, INF, F(1, 2)) == ConePoint(3, INF, F(0))

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryPoint):
            chart_psi_III_n(2, ConePoint(2, F(0), F(1, 3)))

    def test_chart_level_must_match(self):
        with pytest.raises(InvalidParameter):
            chart_psi_III_n(1, ConePoint(2, F(1), F(0)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), fractions_st(signed=False), fractions_st())
    def test_roundtrip(self, n, alpha, beta):
        c = ConePoint(n, alpha, beta % 1)
        assert chart_psi_III_n_inverse(n, chart_psi_III_n(n, c)) == c


class TestGlobalModelChart:
    def test_family_targets(self):
        assert subgroup_to_model(TypeI(F(0))) == BASEPOINT
        assert subgroup_to_model(TypeI(F(3))) == AxisCoord(F(3))
        assert subgroup_to_model(TypeI(INF)) == AxisCoord(INF)
        assert subgroup_to_model(TypeII(F(3, 2), 6)) == OnCircle(6, F(1, 4))
        assert subgroup_to_model(TypeIII(F(1), F(1, 2), 2)) == ConePoint(
            2, F(1), F(1, 2)
        )
        assert subgroup_to_model(TypeIV(2)) == ConePoint(2, INF, F(0))

    def test_noncanonical_rejected(self):
        with pytest.raises(NonCanonicalModelPoint):
            model_to_subgroup(AxisCoord(F(0)))
        with pytest.raises(NonCanonicalModelPoint):
            model_to_subgroup(ConePoint(1, F(0), F(1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(subgroups_st())
    def test_roundtrip(self, H):
        assert model_to_subgroup(subgroup_to_model(H)) == H
