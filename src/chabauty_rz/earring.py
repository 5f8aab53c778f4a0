"""Exact coordinates on the Hawaiian earring, the cones and the glued model.

The earring A is the union of circles A_n of centre 1/n and radius 1/n in
the plane, all through the origin.  A point of A_n away from the origin is
parametrised by the rational slope t = tan(theta).

The model space is a sequence of closed cones accumulating on a segment
axis [0, INF], with every cone boundary glued onto the earring.  Chart
maps identify each canonical subgroup with exactly one model point:

    segment alpha       <->  TypeI(alpha), alpha > 0
    earring basepoint   <->  TypeI(0)
    circle n, slope t   <->  TypeII(n*t, n)
    cone k interior     <->  TypeIII(alpha, beta, k)   (alpha finite)
    cone k apex         <->  TypeIV(k)

Each kind of point has one type: ``AxisCoord`` on the segment,
``ConePoint`` on cone k, and ``Basepoint`` / ``OnCircle`` on the earring.
The global chart is the union of the psi charts of the strata.
Cone-boundary coordinates (alpha = 0) are never the image of a subgroup: a
boundary point is represented by its image on the earring, which makes
model-point equality coincide with subgroup equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .rationals import INF, ExtQ, Record, as_fraction, as_int, at_least
from .subgroups import (
    ClosedSubgroup,
    InvalidParameter,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
)


class NonCanonicalModelPoint(InvalidParameter):
    """A model coordinate that is not the image of any canonical subgroup."""


class BoundaryPoint(NonCanonicalModelPoint):
    """A cone-boundary coordinate was passed to an interior-only chart."""


class AxisCoord(Record):
    """Point of the cone-accumulation axis [0, INF]."""

    __slots__ = ("alpha",)

    @staticmethod
    def _check(alpha):
        if alpha is not INF:
            alpha = as_fraction(alpha)
            if alpha.numerator < 0:
                raise InvalidParameter("axis alpha must be >= 0")
        return (alpha,)


class Basepoint(Record):
    """The common point of all earring circles."""

    __slots__ = ()


class OnCircle(Record):
    # index n of the circle A_n, and the finite slope coordinate tan(theta)
    __slots__ = ("circle", "t")

    @staticmethod
    def _check(circle, t):
        return at_least(circle, "circle index", 1), as_fraction(t)


EarringPoint = Union[Basepoint, OnCircle]

BASEPOINT = Basepoint()


class ConePoint(Record):
    """Chart coordinate (alpha, beta) on the closed cone number k."""

    __slots__ = ("k", "alpha", "beta")

    @staticmethod
    def _check(k, alpha, beta):
        k = at_least(k, "cone index", 1)
        if alpha is INF:
            beta = Fraction(0)  # apex: all beta identified
        else:
            alpha = as_fraction(alpha)
            beta = as_fraction(beta)
            if alpha.numerator < 0:
                raise InvalidParameter("cone alpha must be in [0, INF]")
            if not (0 <= beta.numerator < beta.denominator):
                raise InvalidParameter("cone beta must lie in [0, 1)")
        return k, alpha, beta


ModelPoint = Union[AxisCoord, ConePoint, Basepoint, OnCircle]


# -- psi charts --------------------------------------------------------------

def chart_psi_I(alpha: ExtQ) -> ClosedSubgroup:
    """alpha -> Z(1/alpha, 0); a relabeling of the axis [0, INF]."""
    return TypeI(alpha)


def chart_psi_I_inverse(H: ClosedSubgroup) -> ExtQ:
    if not isinstance(H, TypeI):
        raise InvalidParameter("not in the image of the axis chart")
    return H.alpha


def chart_psi_II_n(n: int, p: EarringPoint) -> ClosedSubgroup:
    """Earring point on circle b -> Z(b*t, b*n); basepoint -> {0}."""
    n = at_least(n, "n", 1)
    if isinstance(p, Basepoint):
        return TypeI(Fraction(0))
    if not isinstance(p, OnCircle):
        raise InvalidParameter(f"not an earring point: {p!r}")
    return TypeII(Fraction(p.circle * p.t.numerator, p.t.denominator), p.circle * n)


def chart_psi_II_n_inverse(n: int, H: ClosedSubgroup) -> EarringPoint:
    """Inverse on the chart's image: requires n to divide the cyclic level."""
    n = as_int(n, "n")
    if isinstance(H, TypeI) and not H.alpha:
        return BASEPOINT
    if not isinstance(H, TypeII) or H.n % n:
        raise InvalidParameter("subgroup is not in the image of this chart")
    b = H.n // n
    return OnCircle(b, Fraction(H.gamma.numerator, H.gamma.denominator * b))


def chart_psi_III_n(n: int, c: ConePoint) -> ClosedSubgroup:
    """Interior cone coordinate -> lattice family; apex -> R x nZ."""
    if not isinstance(c, ConePoint):
        raise InvalidParameter(f"not a cone point: {c!r}")
    if c.k != n:
        raise InvalidParameter("cone index does not match the chart level")
    if c.alpha is INF:
        return TypeIV(n)
    if not c.alpha:
        raise BoundaryPoint("alpha = 0 belongs to the gluing, not the chart")
    return TypeIII(c.alpha, c.beta, n)


def chart_psi_III_n_inverse(n: int, H: ClosedSubgroup) -> ConePoint:
    if isinstance(H, TypeIV) and H.n == n:
        return ConePoint(n, INF, Fraction(0))
    if isinstance(H, TypeIII) and H.n == n:
        return ConePoint(n, H.alpha, H.beta)
    raise InvalidParameter("subgroup is not in the image of this chart")


# -- the global model chart --------------------------------------------------

def subgroup_to_model(H: ClosedSubgroup) -> ModelPoint:
    if isinstance(H, TypeI) and H.alpha:
        return AxisCoord(chart_psi_I_inverse(H))
    if isinstance(H, (TypeI, TypeII)):
        return chart_psi_II_n_inverse(1, H)
    if isinstance(H, (TypeIII, TypeIV)):
        return chart_psi_III_n_inverse(H.n, H)
    raise InvalidParameter(f"not a subgroup value: {H!r}")


def model_to_subgroup(m: ModelPoint) -> ClosedSubgroup:
    if isinstance(m, AxisCoord):
        if not m.alpha:
            raise NonCanonicalModelPoint(
                "axis alpha must be > 0; alpha = 0 is the earring basepoint"
            )
        return chart_psi_I(m.alpha)
    if isinstance(m, (Basepoint, OnCircle)):
        return chart_psi_II_n(1, m)
    if isinstance(m, ConePoint):
        return chart_psi_III_n(m.k, m)
    raise InvalidParameter(f"not a model point: {m!r}")


# -- winding of cone boundaries over earring circles -------------------------

#: Largest m/k accepted by `winding_count`, which counts one a at a time
#: (10^6 takes about 0.25 s).
MAX_WIND_RATIO = 10**6
#: Most earring circles the schematic plot draws; the SVG grows linearly
#: with the count.  Here, not in ``plot``, so that the CLI's help reads it
#: without loading ``plot``.
MAX_CIRCLES = 1000
#: Most cones drawn; cone k is 380/2^k pixels wide, under a pixel from k = 9.
MAX_CONES = 64


def winding_count(k: int, m: int) -> int:
    """How many times the glued boundary of cone k covers circle A_m.

    Each blow-up interval of denominator b wraps once, monotonically,
    around the circle of index k*b, so the count is the number of
    lowest-terms rationals a/b in [0, 1) with k*b = m.  m/k above
    ``MAX_WIND_RATIO`` raises ``InvalidParameter``.
    """
    k, m = as_int(k, "cone index"), as_int(m, "circle index")
    if k <= 0 or m <= 0:
        raise InvalidParameter("cone and circle indices must be >= 1")
    if m > k * MAX_WIND_RATIO:
        raise InvalidParameter(f"circle / cone must be <= {MAX_WIND_RATIO}")
    if m % k:
        return 0
    b = m // k
    return sum(1 for a in range(b) if gcd(a, b) == 1)
