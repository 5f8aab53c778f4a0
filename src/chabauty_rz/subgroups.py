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

from fractions import Fraction
from itertools import chain, repeat
from math import floor, gcd, lcm
from typing import NamedTuple, Sequence, Tuple, Union

from .rationals import INF, InvalidParameter, Record, as_fraction, as_int, as_point, as_points, at_least


class ZeroPoint(InvalidParameter):
    """Raised when (0, 0) is passed where a nonzero point is required."""


class PointRZ(NamedTuple):
    x: Fraction
    level: int


class TypeI(Record):
    __slots__ = ("alpha",)  # in [0, INF]

    @staticmethod
    def _check(alpha):
        if alpha is not INF:
            alpha = as_fraction(alpha)
            if alpha.numerator < 0:
                raise InvalidParameter("TypeI alpha must be >= 0")
        return (alpha,)


class TypeII(Record):
    __slots__ = ("gamma", "n")

    @staticmethod
    def _check(gamma, n):
        return as_fraction(gamma), at_least(n, "TypeII n", 1)


class TypeIII(Record):
    # alpha strictly between 0 and INF, beta the representative in [0, 1)
    __slots__ = ("alpha", "beta", "n")

    @staticmethod
    def _check(alpha, beta, n):
        if alpha is INF or as_fraction(alpha).numerator <= 0:
            raise InvalidParameter("TypeIII alpha must be in (0, INF)")
        beta = as_fraction(beta)
        if not (0 <= beta.numerator < beta.denominator):
            raise InvalidParameter("TypeIII beta must lie in [0, 1)")
        return as_fraction(alpha), beta, at_least(n, "TypeIII n", 1)


class TypeIV(Record):
    __slots__ = ("n",)

    @staticmethod
    def _check(n):
        return (at_least(n, "TypeIV n", 1),)


ClosedSubgroup = Union[TypeI, TypeII, TypeIII, TypeIV]


class Strip(NamedTuple):
    """The segment [-half_width, half_width] x {level}."""

    level: int
    half_width: Fraction


class BallElements(NamedTuple):
    """Exact description of H intersected with a closed delta-ball.

    Each point is an int pair (X, m) standing for (X / scale, m), where
    ``scale`` is the least D > 0 with D*H inside Z x Z.  That scale is
    fixed by the group alone, so two balls of one group at one radius
    are equal exactly when their ``points`` are.
    """

    scale: int
    points: frozenset  # of (X, m) int pairs
    strips: frozenset  # of Strip


MAX_BALL_POINTS = 10**6
"""Most levels, and most points plus strips, that one ball may hold.

Both counts are known before anything is enumerated, so a larger ball
raises ``InvalidParameter`` at once instead of running for minutes.  The
suites' distribution at radius 5 stays below about 1.1 * 10^5 points."""


def check_ball_size(count: int, what: str, r) -> None:
    """Raise ``InvalidParameter`` if a ball of radius r holds more than
    ``MAX_BALL_POINTS`` of ``what``."""
    if count > MAX_BALL_POINTS:
        raise InvalidParameter(
            f"the ball of radius {r} holds {count} {what}, "
            f"over the cap MAX_BALL_POINTS = {MAX_BALL_POINTS}"
        )


def canonicalize_params(family: str, **params) -> ClosedSubgroup:
    """Build the canonical subgroup value for raw family parameters.

    This only normalizes: a negative n flips the sign of the level-n
    generator (Z(g, n) = Z(-g, -n), so gamma or beta changes sign), and
    beta is reduced mod 1 into [0, 1).  The family constructors check
    every range, so n = 0, alpha outside its family's range and the
    degenerate lattices (TypeIII with alpha in {0, INF}, which belong to
    families I and IV) raise ``InvalidParameter`` there.
    """
    if family == "I":
        return TypeI(params["alpha"])
    if family == "II":
        gamma, n = as_fraction(params["gamma"]), as_int(params["n"], "n")
        if n < 0:
            gamma, n = -gamma, -n
        return TypeII(gamma, n)
    if family == "III":
        beta, n = as_fraction(params["beta"]), as_int(params["n"], "n")
        num = beta.numerator
        if n < 0:
            # Z(1/a,0) + Z(b/a, n) = Z(1/a,0) + Z(-b/a, -n)
            num, n = -num, -n
        return TypeIII(params["alpha"], Fraction(num % beta.denominator, beta.denominator), n)
    if family == "IV":
        return TypeIV(params["n"])
    raise InvalidParameter(f"unknown family {family!r}")


def classify_from_generators(gens: Sequence[Tuple]) -> ClosedSubgroup:
    """Canonical form of the closure of the subgroup generated by ``gens``.

    Rational generators always span a discrete (hence closed) subgroup.
    Denominators are cleared by their lcm d, the integer rows (p_i, n_i)
    are reduced to a two-element basis (g, 0), (q, n) of the lattice they
    span in Z^2, and ``from_levels`` reads the family off that basis.
    """
    pts = as_points(gens)
    if not pts:
        return TypeI(Fraction(0))
    d = lcm(*(x.denominator for x, _ in pts))
    rows = [(x.numerator * (d // x.denominator), m) for x, m in pts]
    n = gcd(*(m for _, m in rows))
    if n:
        # Combine generators into one element (q, n), then project the
        # rest to level zero.
        q = _combination_with_level(rows, n)
        g = gcd(*(p - (m // n) * q for p, m in rows))
    else:
        q, g = 0, gcd(*(p for p, _ in rows))
    return from_levels(IntLevels(d, g, q, n, False))


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
    m = as_int(m, "level")
    if isinstance(H, TypeI):
        if m != 0:
            return None
        if H.alpha is INF:
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
    raise InvalidParameter(f"not a subgroup value: {H!r}")


class IntLevels(NamedTuple):
    """H as an integer basis, its first coordinate scaled by ``scale``.

    The scaled group {(scale*x, m) : (x, m) in H} is Z*(g, 0) + Z*(q, n)
    with integers g >= 0 and n >= 0.  n == 0 means only level 0 is
    occupied; g == 0 means each occupied level is a single point;
    ``line`` means each occupied level is a whole line (g and q are then
    0).  ``int_levels`` gives H at its least scale, with q in [0, g) when
    g > 0; ``from_levels`` reads the family back at any scale.
    """

    scale: int
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


def int_levels(H: ClosedSubgroup) -> IntLevels:
    """H's integer basis at its least scale: the least D > 0 with D*H
    inside Z x Z, and 1 for the groups made of lines."""
    if isinstance(H, TypeI):
        if H.alpha is INF:
            return IntLevels(1, 0, 0, 0, True)
        if not H.alpha:
            return IntLevels(1, 0, 0, 0, False)
        # Z*(1/alpha, 0), and 1/alpha = den/num
        return IntLevels(H.alpha.numerator, H.alpha.denominator, 0, 0, False)
    if isinstance(H, TypeII):
        return IntLevels(H.gamma.denominator, 0, H.gamma.numerator, H.n, False)
    if isinstance(H, TypeIII):
        # The level-n generator is (beta/alpha, n); beta/alpha = sn/sd in
        # lowest terms, by one gcd since alpha and beta are reduced.
        an, ad = H.alpha.numerator, H.alpha.denominator
        sn, sd = H.beta.numerator * ad, H.beta.denominator * an
        c = gcd(sn, sd)
        sn, sd = sn // c, sd // c
        D = lcm(an, sd)
        # beta in [0, 1) puts q = D*beta/alpha in [0, g), g = D/alpha
        return IntLevels(D, D // an * ad, D // sd * sn, H.n, False)
    if isinstance(H, TypeIV):
        return IntLevels(1, 0, 0, H.n, True)
    raise InvalidParameter(f"not a subgroup value: {H!r}")


def from_levels(L: IntLevels) -> ClosedSubgroup:
    """The canonical subgroup with integer basis L; L may be at any
    scale that makes it integral, with q not reduced mod g."""
    if L.line:
        return TypeIV(L.n) if L.n else TypeI(INF)
    if not L.n:
        return TypeI(Fraction(L.scale, L.g) if L.g else Fraction(0))
    if not L.g:
        return TypeII(Fraction(L.q, L.scale), L.n)
    return TypeIII(Fraction(L.scale, L.g), Fraction(L.q % L.g, L.g), L.n)


def membership(H: ClosedSubgroup, p: Tuple) -> bool:
    """Exact membership test for a rational point."""
    x, m = as_point(p)
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
    """Exact enumeration of H intersected with the closed ball B(0, r).

    The points come over H's least scale D = ``int_levels(H).scale``:
    each occupied level m with |m| <= r is read off ``int_levels(H)`` as
    one integer progression, cut to |X| <= r*D.  Lines become strips.  A
    ball over ``MAX_BALL_POINTS`` raises ``InvalidParameter`` before
    enumeration.
    """
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParameter("ball radius must be > 0")
    L = int_levels(H)
    D = L.scale
    R = r.numerator * D // r.denominator  # |X| <= R iff |X / D| <= r
    jmax = floor(r) // L.n if L.n else 0
    if not (L.line or L.g) and L.q:
        jmax = min(jmax, R // abs(L.q))  # one point per level, at X = j*q
    check_ball_size(2 * jmax + 1, "levels", r)
    levels = range(-jmax * L.n, jmax * L.n + 1, L.n or 1)
    if L.line:
        return BallElements(D, frozenset(), frozenset(Strip(m, r) for m in levels))

    def rows():
        """Each level's points as (m, range, count); the count is kept
        apart because ``len`` of a range past 2^63 overflows."""
        for m in levels:
            offset, g = L.at(m)
            if g:
                start = offset - (R + offset) // g * g  # least X >= -R in the class
                yield m, range(start, R + 1, g), (R - start) // g + 1
            else:
                yield m, range(offset, offset + 1), 1

    check_ball_size(sum(count for _, _, count in rows()), "points", r)
    points = frozenset(chain.from_iterable(zip(xs, repeat(m)) for m, xs, _ in rows()))
    return BallElements(D, points, frozenset())


def _coset_distance(x: Fraction, offset: Fraction, spacing) -> Fraction:
    if spacing is None:
        return abs(x - offset)
    t = (x - offset) / spacing
    frac = t - floor(t)
    return min(frac, 1 - frac) * spacing


def distance_point_to_subgroup(p: Tuple, H: ClosedSubgroup) -> Fraction:
    """Exact delta-distance from a rational point to the closed set H."""
    x, m = as_point(p)
    if isinstance(H, TypeI):
        return _distance_via_level(x, m, H, 0)
    if not isinstance(H, (TypeII, TypeIII, TypeIV)):
        raise InvalidParameter(f"not a subgroup value: {H!r}")
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
    x, level = as_fraction(x), as_int(level, "level")
    if x == 0 and level == 0:
        raise ZeroPoint("(0, 0) generates the trivial group; no cyclic representative")
    if level < 0 or (level == 0 and x < 0):
        x, level = -x, -level
    return PointRZ(x, level), classify_from_generators([(x, level)])
