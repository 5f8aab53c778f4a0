"""The pointed-Hausdorff (Chabauty) metric between closed subgroups.

d(H, H') is the infimum of the eps > 0 such that each group, intersected
with the closed ball B(0, 1/eps), lies in the open eps-neighbourhood of
the other.  With the closed-ball / open-neighbourhood convention a point
p of H breaks that predicate exactly for eps <= min(1/|p|, delta(p, H')),
so the infimum has the closed form

    d(H, H') = max(S(H, H'), S(H', H)),
    S(H, H') = sup over p in H of min(1/|p|, delta(p, H')),

and it is attained.  ``chabauty_distance`` computes it in one integer
pass per pair: the integer levels of ``subgroups.int_levels`` are taken
once for both groups, at one common scale D, and that one pair of levels
feeds both subset tests (which answer S = 0) and both sides.  A side is
the best of a finite set of candidate points for a discrete group, or a
closed form for a strip (I(inf), IV(n)); scores are int fractions
compared by cross-multiplication, and witnesses int points at scale D.
So d is always rational, ``chabauty_distance`` builds one ``Fraction``
and returns [d, d], and ``distance_witness`` and ``side_sup`` build a
point only for the side they return.

The work is bounded.  No point scores more than 1, so every search stops
once its best score is 1, and the second side is skipped when the first
is 1.  The level loop also stops once |x| alone caps the score of a
group with one point per level, or once half the spacing of a lattice on
every level of the other group does.  Each visited level and candidate
point is charged one unit per 64-bit word of D, so the cap covers the
arithmetic on long literals as well as the count: a search over more
than ``MAX_BALL_POINTS`` units raises ``InvalidParameter``, and every D
below 2^64 costs 1 per level or candidate.

``hausdorff_inclusion_ok`` stays the exact decision of the one-sided
predicate at a given eps, computed by ball enumeration and interval
cover; it shares nothing with the critical-value computation and serves
as its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterator, List, NamedTuple, Optional, Sequence

from .rationals import Record, as_fraction
from .subgroups import (
    LINE,
    MAX_BALL_POINTS,
    ClosedSubgroup,
    IntLevels,
    InvalidParameter,
    PointRZ,
    distance_point_to_subgroup,
    elements_in_ball,
    int_levels,
    level_set,
)


class ToleranceInvalid(InvalidParameter):
    pass


class DistanceBracket(NamedTuple):
    lo: Fraction
    hi: Fraction


def subgroup_subset(H: ClosedSubgroup, H2: ClosedSubgroup) -> bool:
    """Exact decision of H subset of H2, on their integer levels."""
    return _levels_subset(*_common_levels(H, H2))


def _common_levels(A: ClosedSubgroup, B: ClosedSubgroup):
    """The integer levels of A and B at one common scale."""
    Al, Bl = int_levels(A), int_levels(B)
    D = lcm(Al.scale, Bl.scale)
    return Al.over(D), Bl.over(D)


def _levels_subset(A: IntLevels, B: IntLevels) -> bool:
    """A inside B, at one scale: A's lines, or its basis vectors, lie in B."""
    if A.line:
        return B.at(A.n) is LINE
    return (not A.g or _holds(B, A.g, 0)) and (not A.n or _holds(B, A.q, A.n))


def _holds(B: IntLevels, X: int, m: int) -> bool:
    """Does B hold the point (X, m), at B's scale?"""
    Bm = B.at(m)
    if Bm is None or Bm is LINE:
        return Bm is LINE
    o, s = Bm
    return (X - o) % s == 0 if s else X == o


def hausdorff_inclusion_ok(H: ClosedSubgroup, H2: ClosedSubgroup, eps) -> bool:
    """Exact decision of H cap B(0, 1/eps) subset V_eps(H2).

    The ball is closed, the neighbourhood open (strict inequality).
    Strip elements are checked by covering the segment with the open
    eps-intervals contributed by nearby elements of H2; the cover test
    is an exact rational sweep.  A ball over ``MAX_BALL_POINTS`` raises
    ``InvalidParameter``.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ToleranceInvalid("eps must be > 0")
    if subgroup_subset(H, H2):
        return True
    radius = 1 / eps
    ball = elements_in_ball(H, radius)
    for X, m in ball.points:
        if distance_point_to_subgroup((Fraction(X, ball.scale), m), H2) >= eps:
            return False
    for strip in ball.strips:
        if not _strip_covered(strip.level, radius, H2, eps):
            return False
    return True


def _strip_covered(m: int, half_width: Fraction, H2: ClosedSubgroup, eps: Fraction) -> bool:
    """Is every point of [-half_width, half_width] x {m} within < eps of H2?"""
    lo_lvl = ceil(m - eps)  # |m - m'| < eps limits the relevant levels
    hi_lvl = floor(m + eps)
    cosets: List = []
    singles: List = []
    for lvl in range(lo_lvl, hi_lvl + 1):
        if Fraction(abs(m - lvl)) >= eps:
            continue
        ls = level_set(H2, lvl)
        if ls is None:
            continue
        if ls is LINE:
            return True
        offset, spacing = ls
        if spacing is None:
            singles.append(offset)
        else:
            if spacing < 2 * eps:
                return True  # consecutive eps-intervals overlap: the whole line
            cosets.append((offset, spacing))

    if cosets and not singles:
        # The coset union is periodic; decide on one period when the strip
        # spans it, instead of sweeping the full width.
        period = Fraction(
            lcm(*(s.numerator for _, s in cosets)),
            gcd(*(s.denominator for _, s in cosets)),
        )
        if period <= 2 * half_width:
            intervals = _coset_intervals(cosets, -eps, period + eps, eps)
            return _open_intervals_cover(intervals, Fraction(0), period)

    intervals = [(c - eps, c + eps) for c in singles]
    intervals += _coset_intervals(
        cosets, -half_width - eps, half_width + eps, eps
    )
    return _open_intervals_cover(intervals, -half_width, half_width)


def _coset_intervals(cosets, lo: Fraction, hi: Fraction, eps: Fraction):
    """Open eps-intervals around the coset points with centres in [lo, hi]."""
    intervals = []
    for offset, spacing in cosets:
        jlo = ceil((lo - offset) / spacing)
        jhi = floor((hi - offset) / spacing)
        for j in range(jlo, jhi + 1):
            c = offset + j * spacing
            intervals.append((c - eps, c + eps))
    return intervals


def _open_intervals_cover(intervals, a: Fraction, b: Fraction) -> bool:
    """Does the union of the open intervals contain the closed segment [a, b]?"""
    intervals.sort()
    cur = a
    idx = 0
    n = len(intervals)
    while True:
        best = None
        while idx < n and intervals[idx][0] < cur:
            r = intervals[idx][1]
            if best is None or r > best:
                best = r
            idx += 1
        # Merging with previously found reach is implicit: cur only moves
        # forward, and any interval starting before the new cur was consumed.
        if best is None or best <= cur:
            return False
        cur = best
        if cur > b:
            return True


class Witness(NamedTuple):
    """One side S(inner, outer) of the distance and a point attaining it.

    ``point`` lies in ``inner`` and has min(1/|point|, delta(point, outer))
    == ``value``; it is None when the value is 0 (inner lies in outer).
    """

    value: Fraction
    point: Optional[PointRZ]
    inner: ClosedSubgroup
    outer: ClosedSubgroup


def side_sup(A: ClosedSubgroup, B: ClosedSubgroup) -> Witness:
    """S(A, B) = sup over p in A of min(1/|p|, delta(p, B)), with a witness.

    Only the level of B through p matters: any other level is at height
    distance >= 1, while min(1/|p|, dist(x, B_m)) <= 1 (for |p| < 1 the
    point lies on level 0 and B_0 contains 0).  So a point (x, m) scores
    min(1/max(|x|, |m|), dist(x, B_m)), with dist(x, empty) = infinity.
    Both groups are symmetric under p -> -p, so only levels m >= 0 are
    walked, and only while 1/m can still beat the best score.
    """
    return _witness(_side(*_common_levels(A, B)), A, B)


def _side(A: IntLevels, B: IntLevels):
    """S(A, B) in ints at the common scale: (num, den, X, W, m), the score
    num/den attained at the point (X/W, m); (0, 1, 0, 1, 0) when A lies
    in B.  No score exceeds 1, and num == den exactly when it is 1."""
    if _levels_subset(A, B):
        return 0, 1, 0, 1, 0
    return (_strip_sup if A.line else _discrete_sup)(A, B)


def _witness(side, inner: ClosedSubgroup, outer: ClosedSubgroup) -> Witness:
    num, den, X, W, m = side
    point = PointRZ(Fraction(X, W), m) if num else None
    return Witness(Fraction(num, den), point, inner, outer)


def _larger_side(H: IntLevels, K: IntLevels):
    """The larger of S(H, K) and S(K, H), and whether it is S(K, H).  No
    side exceeds 1, so a first side of 1 is the answer; a tie keeps the
    first."""
    a = _side(H, K)
    if a[0] == a[1]:
        return a, False
    b = _side(K, H)
    if b[0] * a[1] > a[0] * b[1]:
        return b, True
    return a, False


def _discrete_sup(A: IntLevels, B: IntLevels):
    """S for a discrete A, all in ints at the common scale D.

    The best score is kept as the fraction bn/bd.  A point (X, m) has
    1/|p| = D/a with a = max(|X|, m*D), so only points with a*bn < D*bd
    can beat the best score.  When B's level is a lattice, dist is
    periodic along A's level with period P = s/gcd(g, s) steps, so the
    point of least |X| in each of the P residue classes suffices, taken
    in decreasing order of dist until dist/D cannot beat the best score;
    the points inside the bound are enumerated instead when they are
    fewer than P.  Every loop stops once the best score is 1, the most
    any point can score; when B is a lattice of spacing s on every level
    of A, dist <= s/2 caps every score.  Each visited level and candidate
    point costs one unit of work per 64-bit word of D, so that the
    arithmetic on D's digits is charged too, and the search raises
    ``InvalidParameter`` once the work passes ``MAX_BALL_POINTS``.
    Returns the side as ``_side`` does, with the witness at W = D.
    """
    D = A.scale
    DD = D * D
    unit = (D.bit_length() + 63) // 64
    bn, bd, wx, wm, work = 0, 1, 0, 0, 0

    def consider(X: int, m: int, Bm) -> None:
        nonlocal bn, bd, wx, wm, work
        work += unit
        if work > MAX_BALL_POINTS:
            raise _over_work_cap()
        if Bm is LINE:
            return
        # a = max(|X|, m*D) and dist = the distance from X to B's level,
        # by comparisons rather than the slower calls to max, min and abs.
        a = X if X >= 0 else -X
        if a < m * D:
            a = m * D
        if Bm is None:
            vn, vd = D, a
        else:
            o, s = Bm
            if s:
                dist = (X - o) % s
                if 2 * dist > s:
                    dist = s - dist
            else:
                dist = X - o if X >= o else o - X
            vn, vd = (D, a) if DD <= a * dist else (dist, D)
        if vn * bd > bn * vd:
            bn, bd, wx, wm = vn, vd, X, m

    # Seed from A's generators; A is not inside B, so one of them scores > 0.
    # Also from level 0's points next to x = 1: there 1/|x| = 1 caps no
    # distance below 1, so they often score near the sup, which keeps the
    # walk below short.
    Ag, Aq, An = A.g, A.q, A.n
    B0 = B.at(0)
    if Ag:
        near = D - D % Ag
        for X in {Ag, near, near + Ag} - {0}:
            consider(X, 0, B0)
    if An:
        consider(Aq, An, B.at(An))

    # No point scores above 1, nor above (s // 2) / D when B holds each
    # level of A as a lattice of spacing s.  On a lattice level the classes
    # of A's points modulo B's repeat with period P = s / h.
    top, h = D, gcd(Ag, B.g)
    if B.g and not B.line and (An % B.n == 0 if B.n else not An):
        top = min(D, B.g // 2)
    period = B.g // h if B.g else 0
    if Ag and period:
        inv, L = pow(Ag // h, -1, period), Ag * period
    m, o, Bm = 0, 0, B0  # A's level m is o + Ag*Z, or {o} when Ag == 0
    while top * bd > bn * D and m * bn < bd:
        work += unit
        if work > MAX_BALL_POINTS:
            raise _over_work_cap()
        if not Ag and abs(o) * bn >= D * bd:
            break  # one point per level, and |o| grows with m
        if Bm is not LINE:
            if not Ag:
                consider(o, m, Bm)
            elif Bm is None:
                consider(o if 2 * o <= Ag else o - Ag, m, Bm)
            else:
                oB, s = Bm
                if 0 < period <= 2 * D * bd // (bn * Ag) + 2:
                    # Classes by their distance t to B's level, largest
                    # first: X = o + g*k lies at t iff g*k = oB +- t - o
                    # (mod s), and a class scores at most t/D.
                    for t in _descending(s // 2, h, (o - oB) % h):
                        if t * bd <= bn * D or bn >= bd:
                            break
                        for c in (oB + t - o, oB - t - o):
                            if c % h == 0:
                                X = (o + Ag * (c // h * inv % period)) % L
                                consider(X if 2 * X <= L else X - L, m, Bm)
                else:
                    # Outward from 0 in order of |X|, while the bound holds.
                    right, left, mD = o, o - Ag, m * D
                    while True:
                        if right <= -left:
                            X, right = right, right + Ag
                        else:
                            X, left = left, left - Ag
                        if max(abs(X), mD) * bn >= D * bd:
                            break
                        consider(X, m, Bm)
        if not An:
            break
        m += An
        o = (o + Aq) % Ag if Ag else o + Aq
        Bm = B.at(m)
    return bn, bd, wx, D, wm


def _over_work_cap() -> InvalidParameter:
    return InvalidParameter(
        f"the distance needs more than MAX_BALL_POINTS = {MAX_BALL_POINTS} "
        "units of work, 1 per level or candidate point per 64-bit word of "
        "the common scale"
    )


def _descending(top: int, h: int, r: int) -> Iterator[int]:
    """The t in [1, top] with t = +-r (mod h), largest first."""
    t, u = top - (top - r) % h, top - (top + r) % h
    if t < u:
        t, u = u, t
    elif t == u:
        u = 0  # r = -r (mod h): one progression
    # Both lie in (top - h, top], so t, u, t - h, u - h, ... descends.
    while t >= 1:
        yield t
        if u >= 1:
            yield u
        t, u = t - h, u - h


def _strip_sup(A: IntLevels, B: IntLevels):
    """S for a strip A (I(inf) or IV(n)), in closed form.

    Level 0 of B holds 0.  If it is a single point, x = 1 scores 1, the
    most any point can.  If it is a lattice s*Z, the tent dist(x, s*Z)
    meets 1/|x| at x = 1 when s >= 2, else peaks at x = s/2 below it: the
    level scores min(1, s/2).  A level m >= 1 where B is a lattice of the
    same spacing scores at most min(1/m, s/2), never more than level 0, so
    beyond level 0 only empty levels of B count, each with 1/m at (0, m);
    the lowest one wins.  That is level n of A when B has any empty level
    nk, since B's occupied levels are the multiples of B's n.  Hence S is
    always rational.
    """
    num, den = 0, 1
    B0 = B.at(0)
    if B0 is not LINE:
        s, D2 = B0[1], 2 * A.scale
        num, den = (min(D2, s), D2) if s else (1, 1)
    m = A.n
    if m and m * num < den and B.at(m) is None:
        return 1, m, 0, 1, m
    return num, den, num, den, 0  # the maximiser x equals its score


def distance_witness(H: ClosedSubgroup, H2: ClosedSubgroup) -> Witness:
    """The larger side of d(H, H2) = max(S(H, H2), S(H2, H)); no side
    exceeds 1, so a first side of 1 is the answer, and a tie gives
    S(H, H2)."""
    side, swapped = _larger_side(*_common_levels(H, H2))
    return _witness(side, H2, H) if swapped else _witness(side, H, H2)


def chabauty_distance(H: ClosedSubgroup, H2: ClosedSubgroup, tol) -> DistanceBracket:
    """The distance d(H, H2) as the exact bracket [d, d].

    d = max(S(H, H2), S(H2, H)), S as in ``side_sup``; it is always
    rational (see ``_strip_sup`` for the strips), so lo == hi.  ``tol``
    bounds the bracket width, which is 0; it must still be > 0.  Equal
    subgroups give [0, 0]: their levels at the common scale are equal,
    since ``from_levels`` reads the one canonical group back at any scale.
    """
    if as_fraction(tol).numerator <= 0:
        raise ToleranceInvalid("tol must be > 0")
    levels = _common_levels(H, H2)
    if levels[0] == levels[1]:
        return DistanceBracket(Fraction(0), Fraction(0))
    side, _ = _larger_side(*levels)
    d = Fraction(side[0], side[1])
    return DistanceBracket(d, d)


class LimitReport(Record):
    # distances: a DistanceBracket per sequence entry
    __slots__ = ("distances", "passed")

    def __init__(self, distances: tuple, passed: bool):
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "passed", passed)


def verify_limit(
    seq: Sequence[ClosedSubgroup],
    limit: ClosedSubgroup,
    tol,
    tail: int,
) -> LimitReport:
    """Check that the last ``tail`` members of ``seq`` are within tol of the limit."""
    if not seq:
        raise InvalidSequence("sequence must be nonempty")
    if not (1 <= tail <= len(seq)):
        raise InvalidSequence("tail must satisfy 1 <= tail <= len(seq)")
    tol = as_fraction(tol)
    brackets = tuple(chabauty_distance(Hk, limit, tol) for Hk in seq)
    ok = all(br.hi <= tol for br in brackets[-tail:])
    return LimitReport(brackets, ok)


class InvalidSequence(InvalidParameter):
    pass
