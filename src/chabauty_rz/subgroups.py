"""Canonical closed subgroups of R x Z and their exact geometry.

Every closed subgroup of R x Z falls into exactly one of four disjoint
families, each with a unique parameter tuple:

  * ``TypeI(alpha)``            Z * (1/alpha, 0); alpha=0 gives {0},
                                alpha=INF gives R x {0}
  * ``TypeII(gamma, n)``        Z * (gamma, n), the infinite cyclic groups
                                with nonzero projection to Z
  * ``TypeIII(alpha, beta, n)`` Z * (1/alpha, 0) + Z * (beta/alpha, n),
                                rank-two lattices, 0 < alpha < INF
  * ``TypeIV(n)``               R x nZ

The ambient metric is delta((x, n), (x', n')) = max(|x - x'|, |n - n'|).
All parameters are exact rationals, so membership, ball enumeration and
point-to-set distances below are exact decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import NamedTuple, Sequence, Tuple, Union

from .rationals import ExtQ, as_fraction, is_inf


class InvalidParameter(ValueError):
    """Raised for parameters outside a family's legal range."""


class ZeroPoint(ValueError):
    """Raised when (0, 0) is passed where a nonzero point is required."""


class PointRZ(NamedTuple):
    x: Fraction
    level: int


@dataclass(frozen=True)
class TypeI:
    alpha: ExtQ  # in [0, INF]

    def __post_init__(self):
        if not is_inf(self.alpha):
            object.__setattr__(self, "alpha", as_fraction(self.alpha))
            if self.alpha < 0:
                raise InvalidParameter("TypeI alpha must be >= 0")


@dataclass(frozen=True)
class TypeII:
    gamma: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        if self.n <= 0:
            raise InvalidParameter("TypeII n must be >= 1")


@dataclass(frozen=True)
class TypeIII:
    alpha: Fraction  # strictly between 0 and INF
    beta: Fraction   # canonical representative in [0, 1)
    n: int

    def __post_init__(self):
        if is_inf(self.alpha):
            raise InvalidParameter("TypeIII alpha must be finite")
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.alpha <= 0:
            raise InvalidParameter("TypeIII alpha must be > 0")
        if not (0 <= self.beta < 1):
            raise InvalidParameter("TypeIII beta must lie in [0, 1)")
        if self.n <= 0:
            raise InvalidParameter("TypeIII n must be >= 1")


@dataclass(frozen=True)
class TypeIV:
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise InvalidParameter("TypeIV n must be >= 1")


ClosedSubgroup = Union[TypeI, TypeII, TypeIII, TypeIV]


class Strip(NamedTuple):
    """The segment [-half_width, half_width] x {level}."""

    level: int
    half_width: Fraction


@dataclass(frozen=True)
class BallElements:
    """Exact description of H intersected with a closed delta-ball."""

    points: frozenset  # of PointRZ
    strips: frozenset  # of Strip


def canonicalize_params(family: str, **params) -> ClosedSubgroup:
    """Build the canonical subgroup value for raw family parameters.

    Beta is reduced mod 1 into [0, 1); a negative n for TypeII flips the
    sign of gamma (Z(g, n) = Z(-g, -n)).  TypeIII with alpha in {0, INF}
    is rejected: those subgroups belong to families I and IV.
    """
    if family == "I":
        alpha = params["alpha"]
        return TypeI(alpha if is_inf(alpha) else as_fraction(alpha))
    if family == "II":
        gamma, n = as_fraction(params["gamma"]), params["n"]
        if n == 0:
            raise InvalidParameter("TypeII n must be nonzero")
        if n < 0:
            gamma, n = -gamma, -n
        return TypeII(gamma, n)
    if family == "III":
        alpha, beta, n = params["alpha"], params["beta"], params["n"]
        if is_inf(alpha):
            raise InvalidParameter("TypeIII alpha must be in (0, INF)")
        alpha = as_fraction(alpha)
        if alpha <= 0:
            raise InvalidParameter("TypeIII alpha must be in (0, INF)")
        if n == 0:
            raise InvalidParameter("TypeIII n must be nonzero")
        if n < 0:
            # Z(1/a,0) + Z(b/a, n) = Z(1/a,0) + Z(-b/a, -n)
            beta, n = -as_fraction(beta), -n
        return TypeIII(alpha, as_fraction(beta) % 1, n)
    if family == "IV":
        return TypeIV(params["n"])
    raise InvalidParameter(f"unknown family {family!r}")


def classify_from_generators(gens: Sequence[Tuple]) -> ClosedSubgroup:
    """Canonical form of the closure of the subgroup generated by ``gens``.

    Rational generators always span a discrete (hence closed) subgroup.
    Denominators are cleared by their lcm d, the integer rows (p_i, n_i)
    are reduced to a two-element basis (g, 0), (q, n) of the lattice they
    span in Z^2, and the family parameters are read off that basis.
    """
    pts = [(as_fraction(x), int(m)) for x, m in gens]
    pts = [(x, m) for x, m in pts if x != 0 or m != 0]
    if not pts:
        return TypeI(Fraction(0))

    d = lcm(*(x.denominator for x, _ in pts))
    rows = [(int(x * d), m) for x, m in pts]

    n = gcd(*(m for _, m in rows)) if any(m for _, m in rows) else 0
    if n == 0:
        g = gcd(*(p for p, _ in rows))
        if g == 0:
            return TypeI(Fraction(0))
        return TypeI(Fraction(d, g))  # 1/alpha = g/d

    # Combine generators into one element (q, n), then project the rest
    # to level zero.
    q = _combination_with_level(rows, n)
    g = 0
    for p, m in rows:
        g = gcd(g, p - (m // n) * q)
    if g == 0:
        return TypeII(Fraction(q, d), n)
    alpha = Fraction(d, g)
    beta = Fraction(q, g) % 1
    return TypeIII(alpha, beta, n)


def _combination_with_level(rows, n: int) -> int:
    """First coordinate of some lattice element whose level is exactly n."""
    acc_p, acc_m = 0, 0
    for p, m in rows:
        if m == 0:
            continue
        if acc_m == 0:
            acc_p, acc_m = p, m
        else:
            h, u, v = _xgcd(acc_m, m)
            acc_p, acc_m = u * acc_p + v * p, h
        if abs(acc_m) == n:
            break
    if acc_m < 0:
        acc_p, acc_m = -acc_p, -acc_m
    assert acc_m == n
    return acc_p


def _xgcd(a: int, b: int):
    """g, u, v with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


LINE = "line"


def level_set(H: ClosedSubgroup, m: int):
    """Description of H at integer level m.

    Returns None (empty), LINE (all of R x {m}), or a pair
    (offset, spacing) describing offset + spacing*Z; spacing None means
    the single point {offset}.
    """
    if isinstance(H, TypeI):
        if m != 0:
            return None
        if is_inf(H.alpha):
            return LINE
        if H.alpha == 0:
            return (Fraction(0), None)
        return (Fraction(0), 1 / H.alpha)
    if isinstance(H, TypeII):
        if m % H.n:
            return None
        return (Fraction(m, H.n) * H.gamma, None)
    if isinstance(H, TypeIII):
        if m % H.n:
            return None
        q = m // H.n
        return ((q * H.beta) / H.alpha, 1 / H.alpha)
    if isinstance(H, TypeIV):
        return LINE if m % H.n == 0 else None
    raise TypeError(f"not a subgroup value: {H!r}")


class IntLevels(NamedTuple):
    """H with its first coordinate scaled by an integer D, in ints.

    The scaled group {(D*x, m) : (x, m) in H} is Z*(g, 0) + Z*(q, n) with
    integers g >= 0 and n >= 0.  n == 0 means only level 0 is occupied;
    g == 0 means each occupied level is a single point; ``line`` means
    each occupied level is a whole line (g and q are then 0).
    """

    g: int
    q: int
    n: int
    line: bool

    def at(self, m: int):
        """Level m: None (empty), LINE, or (offset, spacing) for
        offset + spacing*Z; spacing 0 is the single point {offset}, and
        for spacing > 0 the offset lies in [0, spacing)."""
        if self.n:
            k, rem = divmod(m, self.n)
            if rem:
                return None
        elif m:
            return None
        else:
            k = 0
        if self.line:
            return LINE
        if self.g:
            return ((k * self.q) % self.g, self.g)
        return (k * self.q, 0)


def level_denominator(H: ClosedSubgroup) -> int:
    """Least D > 0 for which ``scaled_levels(H, D)`` is integral: the lcm of
    the denominators of H's generators' first coordinates."""
    if isinstance(H, TypeI):
        return 1 if is_inf(H.alpha) or H.alpha == 0 else H.alpha.numerator
    if isinstance(H, TypeII):
        return H.gamma.denominator
    if isinstance(H, TypeIII):
        return lcm(H.alpha.numerator, (H.beta / H.alpha).denominator)
    if isinstance(H, TypeIV):
        return 1
    raise TypeError(f"not a subgroup value: {H!r}")


def scaled_levels(H: ClosedSubgroup, D: int) -> IntLevels:
    """The integer level sets of H scaled by D, a multiple of
    ``level_denominator(H)``."""
    if isinstance(H, TypeI):
        if is_inf(H.alpha):
            return IntLevels(0, 0, 0, True)
        if H.alpha == 0:
            return IntLevels(0, 0, 0, False)
        return IntLevels(D * H.alpha.denominator // H.alpha.numerator, 0, 0, False)
    if isinstance(H, TypeII):
        return IntLevels(0, D * H.gamma.numerator // H.gamma.denominator, H.n, False)
    if isinstance(H, TypeIII):
        g = D * H.alpha.denominator // H.alpha.numerator
        q = D * H.beta.numerator * H.alpha.denominator // (
            H.beta.denominator * H.alpha.numerator
        )
        return IntLevels(g, q % g, H.n, False)
    if isinstance(H, TypeIV):
        return IntLevels(0, 0, H.n, True)
    raise TypeError(f"not a subgroup value: {H!r}")


def membership(H: ClosedSubgroup, p: Tuple) -> bool:
    """Exact membership test for a rational point."""
    x, m = as_fraction(p[0]), int(p[1])
    ls = level_set(H, m)
    if ls is None:
        return False
    if ls is LINE:
        return True
    offset, spacing = ls
    if spacing is None:
        return x == offset
    return ((x - offset) / spacing).denominator == 1


def elements_in_ball(H: ClosedSubgroup, r) -> BallElements:
    """Exact enumeration of H intersected with the closed ball B(0, r)."""
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParameter("ball radius must be > 0")
    points = set()
    strips = set()

    if isinstance(H, TypeI):
        if is_inf(H.alpha):
            strips.add(Strip(0, r))
        elif H.alpha == 0:
            points.add(PointRZ(Fraction(0), 0))
        else:
            step = 1 / H.alpha
            kmax = floor(r / step)
            for k in range(-kmax, kmax + 1):
                points.add(PointRZ(k * step, 0))
    elif isinstance(H, TypeII):
        kmax = floor(r / H.n)
        if H.gamma != 0:
            kmax = min(kmax, floor(r / abs(H.gamma)))
        for k in range(-kmax, kmax + 1):
            points.add(PointRZ(k * H.gamma, k * H.n))
    elif isinstance(H, TypeIII):
        qmax = floor(r / H.n)
        ra = r * H.alpha
        for q in range(-qmax, qmax + 1):
            qb = q * H.beta
            for p in range(ceil(-ra - qb), floor(ra - qb) + 1):
                points.add(PointRZ((qb + p) / H.alpha, q * H.n))
    elif isinstance(H, TypeIV):
        qmax = floor(r / H.n)
        for q in range(-qmax, qmax + 1):
            strips.add(Strip(q * H.n, r))
    else:
        raise TypeError(f"not a subgroup value: {H!r}")

    return BallElements(frozenset(points), frozenset(strips))


def _coset_distance(x: Fraction, offset: Fraction, spacing) -> Fraction:
    if spacing is None:
        return abs(x - offset)
    t = (x - offset) / spacing
    frac = t - floor(t)
    return min(frac, 1 - frac) * spacing


def distance_point_to_subgroup(p: Tuple, H: ClosedSubgroup) -> Fraction:
    """Exact delta-distance from a rational point to the closed set H."""
    x, m = as_fraction(p[0]), int(p[1])
    if isinstance(H, TypeI):
        return _distance_via_level(x, m, H, 0)
    nearest = round(Fraction(m, H.n)) * H.n
    best = _distance_via_level(x, m, H, nearest)
    # Any closer level must satisfy |m - lvl| < best.
    for step in (H.n, -H.n):
        lvl = nearest + step
        while abs(m - lvl) < best:
            best = min(best, _distance_via_level(x, m, H, lvl))
            lvl += step
    return best


def _distance_via_level(x: Fraction, m: int, H: ClosedSubgroup, lvl: int) -> Fraction:
    ls = level_set(H, lvl)
    assert ls is not None
    dl = Fraction(abs(m - lvl))
    if ls is LINE:
        return dl
    offset, spacing = ls
    return max(dl, _coset_distance(x, offset, spacing))


def eta_cyclic(x, level: int):
    """Canonical generator of the cyclic group through +-(x, level).

    The representative has level > 0, or level = 0 and x > 0; the closure
    of the generated group comes from the classifier.
    """
    x = as_fraction(x)
    level = int(level)
    if x == 0 and level == 0:
        raise ZeroPoint("(0, 0) generates the trivial group; no cyclic representative")
    if level < 0 or (level == 0 and x < 0):
        x, level = -x, -level
    return PointRZ(x, level), classify_from_generators([(x, level)])
