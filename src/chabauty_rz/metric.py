"""The pointed-Hausdorff (Chabauty) metric between closed subgroups.

d(H, H') is the infimum of the eps > 0 such that each group, intersected
with the closed ball B(0, 1/eps), lies in the open eps-neighbourhood of
the other.  With the closed-ball / open-neighbourhood convention a point
p of H breaks that predicate exactly for eps <= min(1/|p|, delta(p, H')),
so the infimum has the closed form

    d(H, H') = max(S(H, H'), S(H', H)),
    S(H, H') = sup over p in H of min(1/|p|, delta(p, H')),

and it is attained.  ``chabauty_distance`` computes it in one flat
integer pass per pair, on plain local ints.  ``subgroups.int_levels`` is
read once per group, and both bases are scaled to one common scale D;
each level of the other group is then read by arithmetic on its basis
(level m is empty unless n divides m, else the line or q*m/n + g*Z).
That one pass feeds both subset tests (which answer S = 0) and both
sides.  A side is the best of a finite set of candidate points for a
discrete group, or a closed form for a strip (I(inf), IV(n)); scores are
int fractions compared by cross-multiplication, and witnesses int points
at scale D.  So d is always rational; ``chabauty_distance`` builds one
``Fraction`` and one ``DistanceBracket`` [d, d] at the end, and
``distance_witness`` builds a point only for the side it returns.
``subgroup_subset`` reads the same levels.

The work, the distance and its witness do not depend on the argument
order.  Both sides are bounded first: no point scores over 1, nor
over (s // 2) / D when the other group holds each level as a lattice
of spacing s, and a strip's side is known in closed form.  A
strip's side comes first, as it needs no search; then the side with the
larger bound, and on equal bounds the side of the lesser levels,
whichever argument they came in.  The other side is skipped when its
bound cannot beat the first side's score, else searched from that
score.  A search skips what cannot win: on level 0 the other group holds
0, so a point (x, 0) scores at most |x|, and the walk there starts past
|x| = the best score so far (the level-0 floor).  Both searches draw on
one budget: each visited level and candidate point costs one unit per
64-bit word of D, and past ``MAX_BALL_POINTS`` units the distance raises
``InvalidParameter``.  A tie goes to the side searched first: the other
side is searched only for a greater score.

``hausdorff_inclusion_ok`` stays the exact decision of the one-sided
predicate at a given eps, computed by ball enumeration and interval
cover in ``Fraction`` arithmetic.  Its shortcut for H inside H2 is its
own, ``reference_subset`` on ``membership`` and ``level_set``, so it
shares nothing with the critical-value computation and serves as its
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import List, NamedTuple, Optional, Sequence

from .rationals import INF, Record, as_fraction, as_int
from .subgroups import (
    LINE,
    MAX_BALL_POINTS,
    ClosedSubgroup,
    InvalidParameter,
    PointRZ,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    distance_point_to_subgroup,
    elements_in_ball,
    int_levels,
    level_set,
    membership,
)


class ToleranceInvalid(InvalidParameter):
    pass


class DistanceBracket(NamedTuple):
    lo: Fraction
    hi: Fraction


def subgroup_subset(H: ClosedSubgroup, H2: ClosedSubgroup) -> bool:
    """Exact decision of H subset of H2, on their integer levels."""
    _, A, B = _levels(H, H2)
    return _subset(A, B)


def _levels(H: ClosedSubgroup, K: ClosedSubgroup):
    """D and the integer bases (g, q, n, line) of H and of K (see
    ``IntLevels``) at that one common scale D."""
    D, Hg, Hq, Hn, Hl = int_levels(H)
    E, Kg, Kq, Kn, Kl = int_levels(K)
    if D != E:
        k = E // gcd(D, E)
        D, Hg, Hq = D * k, Hg * k, Hq * k
        k = D // E
        Kg, Kq = Kg * k, Kq * k
    return D, (Hg, Hq, Hn, Hl), (Kg, Kq, Kn, Kl)


def _subset(A, B) -> bool:
    """A inside B, at one scale: A's lines, or its basis vectors, lie in B.
    B's level m is empty unless Bn divides m, else the line, or
    Bq*m/Bn + Bg*Z."""
    Ag, Aq, An, Al = A
    Bg, Bq, Bn, Bl = B
    if Al:
        return Bl and (An % Bn == 0 if Bn else not An)
    if Ag and not Bl and (not Bg or Ag % Bg):
        return False  # (Ag, 0) is off B's level 0
    if not An:
        return True
    if not Bn or An % Bn:
        return False  # B's level An is empty
    if Bl:
        return True
    o = An // Bn * Bq
    return (Aq - o) % Bg == 0 if Bg else Aq == o


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
    if reference_subset(H, H2):
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


def reference_subset(H: ClosedSubgroup, H2: ClosedSubgroup) -> bool:
    """H subset of H2 in Fraction arithmetic: each generator of H (or its
    line) lies in H2, by ``membership`` and ``level_set``."""
    if isinstance(H, TypeI):
        if H.alpha is INF:
            return level_set(H2, 0) is LINE
        if H.alpha == 0:
            return membership(H2, (0, 0))
        return membership(H2, (1 / H.alpha, 0))
    if isinstance(H, TypeII):
        return membership(H2, (H.gamma, H.n))
    if isinstance(H, TypeIII):
        return membership(H2, (1 / H.alpha, 0)) and membership(
            H2, (H.beta / H.alpha, H.n)
        )
    if isinstance(H, TypeIV):
        return isinstance(H2, TypeIV) and H.n % H2.n == 0
    raise InvalidParameter(f"not a subgroup value: {H!r}")


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


def _larger_side(D, H, K):
    """The larger of S(H, K) and S(K, H), for the bases H and K of
    ``_levels`` at the common scale D, and whether it is S(K, H), in the
    order and with the tie rule of the module docstring; a side is
    (num, den, X, W, m) for the score num/den attained at (X/W, m).

    Each side is bounded before any search.  Only the level of the other
    group through p matters: any other level is at height distance >= 1,
    while min(1/|p|, dist(x, B_m)) <= 1 (for |p| < 1 the point lies on
    level 0 and B_0 contains 0).  So a point (x, m) scores
    min(1/max(|x|, |m|), dist(x, B_m)), with dist(x, empty) = infinity:
    never above 1, nor above (s // 2) / D when B holds each level of A as
    a lattice of spacing s.  A strip's side is exact (``_strip_sup``).
    """
    if H == K:
        return (0, 1, 0, 1, 0), False
    Hg, Hq, Hn, Hl = H
    Kg, Kq, Kn, Kl = K
    # S(H, K): a strip's closed form, or a cap htop/D on a discrete side
    if Hl:
        hk = _strip_sup(D, Hn, Kg, Kn, Kl)
        htop, hden = hk[0], hk[1]
    else:
        hk, hden = None, D
        htop = min(D, Kg // 2) if Kg and (Hn % Kn == 0 if Kn else not Hn) else D
    if Kl:
        kh = _strip_sup(D, Kn, Hg, Hn, Hl)
        ktop, kden = kh[0], kh[1]
    else:
        kh, kden = None, D
        ktop = min(D, Hg // 2) if Hg and (Kn % Hn == 0 if Hn else not Kn) else D
    # a strip's side first, as it is known; then the larger bound, then the
    # lesser levels.  H and K are renamed so that S(H, K) comes first.
    swapped = (kh is not None, ktop * hden, H) > (hk is not None, htop * kden, K)
    if swapped:
        H, K, hk, htop, kh, ktop, kden = K, H, kh, ktop, hk, htop, hden
    side, work = hk, 0
    if side is None:
        side = _discrete_sup(D, H, K, htop, 0, 1, 0)
        work = side[5]
    bn, bd = side[0], side[1]
    if kh is None and ktop * bd > bn * kden:
        kh = _discrete_sup(D, K, H, ktop, bn, bd, work)
    if kh is not None and kh[0] * bd > bn * kh[1]:
        return kh, not swapped
    return side, swapped


def _discrete_sup(D, A, B, top, bn, bd, work):
    """S for a discrete A against B, both bases (g, q, n, line) at the
    common scale D, if it beats the score bn/bd, below the cap top/D; 0
    when A lies in B.

    One flat pass on local ints.  The best score is kept as the fraction bn/bd.
    A point (X, m) has 1/|p| = D/a with a = max(|X|, m*D), so only points
    with a*bn < D*bd can beat the best score.  B's level m is read from
    its basis: empty unless Bn divides m, else the line, or Bq*m/Bn +
    Bg*Z.  When it is a lattice, dist is periodic along A's level with
    period P = s/gcd(g, s) steps, so the point of least |X| in each of
    the P residue classes suffices, taken in decreasing order of dist
    until dist/D cannot beat the best score; the points inside the bound
    are walked outward from 0 instead when they are fewer than P.  On
    level 0 that walk starts at the first |X| above bn*D/bd: B's level 0
    holds 0, so dist(X, B_0) <= |X| and no point at or below that floor
    can beat the best.  Every loop stops once the best score is 1, and
    the level loop once it reaches the cap.  Each visited level and
    candidate point adds one unit per 64-bit word of D to ``work``, so
    that the arithmetic on D's digits is charged too, and the search
    raises ``InvalidParameter`` once the work passes ``MAX_BALL_POINTS``.

    Returns (num, den, X, D, m, work) for the score num/den attained at
    (X/D, m), or None when no point beats bn/bd.
    """
    if _subset(A, B):
        return 0, 1, 0, 1, 0, work
    Ag, Aq, An, _ = A
    Bg, Bq, Bn, Bl = B
    DD, cap = D * D, MAX_BALL_POINTS
    unit = (D.bit_length() + 63) // 64
    wx, wm = None, 0

    # Seed from A's generators; A is not inside B, so one of them scores > 0.
    # Also from level 0's points next to x = 1: there 1/|x| = 1 caps no
    # distance below 1, so they often score near the sup, which keeps the
    # walk below short.  The distinct nonzero seeds are each charged once,
    # in the iteration order of their set: of equal best seeds the first
    # wins, the rule that fixes which of equal points distance_witness
    # returns.
    if Ag:
        near = D - D % Ag
        for X in {Ag, near, near + Ag} - {0}:
            work += unit
            if work > cap:
                raise _over_work_cap()
            if Bl:
                continue
            if Bg:
                dist = X % Bg
                if 2 * dist > Bg:
                    dist = Bg - dist
            else:
                dist = X
            vn, vd = (D, X) if DD <= X * dist else (dist, D)
            if vn * bd > bn * vd:
                bn, bd, wx = vn, vd, X
    if An:
        work += unit
        if work > cap:
            raise _over_work_cap()
        k, empty = divmod(An, Bn) if Bn else (0, An)
        if empty or not Bl:
            a, oB = An * D, k * Bq
            if a < Aq or a < -Aq:
                a = Aq if Aq >= 0 else -Aq
            if empty:
                dist = DD  # no point of B there: the score is D/a, as a >= D
            elif Bg:
                dist = (Aq - oB) % Bg
                if 2 * dist > Bg:
                    dist = Bg - dist
            else:
                dist = Aq - oB if Aq >= oB else oB - Aq
            vn, vd = (D, a) if DD <= a * dist else (dist, D)
            if vn * bd > bn * vd:
                bn, bd, wx, wm = vn, vd, Aq, An

    # On a lattice level the classes of A's points modulo B's repeat with
    # period P = s / h.
    h = gcd(Ag, Bg)
    period = Bg // h if Bg else 0
    if Ag and period:
        inv, L = pow(Ag // h, -1, period), Ag * period
    m = o = 0  # A's level m is o + Ag*Z, or {o} when Ag == 0
    while top * bd > bn * D and m * bn < bd:
        work += unit
        if work > cap:
            raise _over_work_cap()
        if not Ag and abs(o) * bn >= D * bd:
            break  # one point per level, and |o| grows with m
        # B's level m: empty, the line, or oB + Bg*Z with oB in [0, Bg)
        k, empty = divmod(m, Bn) if Bn else (0, m)
        if empty or not Bl:
            mD, oB = m * D, k * Bq % Bg if Bg else k * Bq
            if Ag and not empty and 0 < period <= 2 * D * bd // (bn * Ag) + 2:
                # Classes by their distance t to B's level, largest first:
                # X = o + g*k lies at t iff g*k = oB +- t - o (mod s), so a
                # class scores min(D/a, t/D).  The t in [1, s // 2] with
                # t = +-r (mod h) form two progressions of step h that
                # interleave, so going down the steps alternate between
                # their gap and h minus it (h alone for one progression).
                r, t = (o - oB) % h, Bg // 2
                t, u = t - (t - r) % h, t - (t + r) % h
                step = t - u if t > u else u - t or h
                if t < u:
                    t = u
                back = h - step or h
                while t >= 1:
                    if t * bd <= bn * D or bn >= bd:
                        break
                    for c in (oB + t - o, oB - t - o):
                        if c % h == 0:
                            X = (o + Ag * (c // h * inv % period)) % L
                            if 2 * X > L:
                                X -= L
                            work += unit
                            if work > cap:
                                raise _over_work_cap()
                            a = X if X >= 0 else -X
                            if a < mD:
                                a = mD
                            vn, vd = (D, a) if DD <= a * t else (t, D)
                            if vn * bd > bn * vd:
                                bn, bd, wx, wm = vn, vd, X, m
                    t -= step
                    step, back = back, step
            else:
                # Outward from 0 in order of |X|, while the bound holds; on
                # level 0 from the first |X| above the floor bn*D/bd.  A
                # level where A has one point, or where B has none, has one
                # candidate, the first of the walk: the point of least |X|,
                # charged and scored without the bound test.
                single = empty or not Ag
                if m or single:
                    right, left = o, o - Ag
                else:
                    right = (bn * D // bd // Ag + 1) * Ag
                    left = -right
                while True:
                    if right <= -left:
                        X, right = right, right + Ag
                    else:
                        X, left = left, left - Ag
                    a = X if X >= 0 else -X
                    if a < mD:
                        a = mD
                    if a * bn >= D * bd and not single:
                        break
                    work += unit
                    if work > cap:
                        raise _over_work_cap()
                    if empty:
                        dist = DD
                    elif Bg:
                        dist = (X - oB) % Bg
                        if 2 * dist > Bg:
                            dist = Bg - dist
                    else:
                        dist = X - oB if X >= oB else oB - X
                    vn, vd = (D, a) if DD <= a * dist else (dist, D)
                    if vn * bd > bn * vd:
                        bn, bd, wx, wm = vn, vd, X, m
                    if single:
                        break
        if not An:
            break
        m += An
        o = (o + Aq) % Ag if Ag else o + Aq
    return None if wx is None else (bn, bd, wx, D, wm, work)


def _over_work_cap() -> InvalidParameter:
    return InvalidParameter(
        f"the distance needs more than MAX_BALL_POINTS = {MAX_BALL_POINTS} "
        "units of work, 1 per level or candidate point per 64-bit word of "
        "the common scale"
    )


def _strip_sup(D, An, Bg, Bn, Bl):
    """S for a strip A (I(inf) or IV(n), with n = An) against B, in closed
    form, as a side (num, den, X, W, m).

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
    if not Bl:
        D2 = 2 * D
        num, den = (min(D2, Bg), D2) if Bg else (1, 1)
    if An and An * num < den and (not Bn or An % Bn):
        return 1, An, 0, 1, An
    return num, den, num, den, 0  # the maximiser x equals its score


def distance_witness(H: ClosedSubgroup, H2: ClosedSubgroup) -> Witness:
    """The larger side of d(H, H2) = max(S(H, H2), S(H2, H)), found by the
    one search of ``chabauty_distance``, with a point attaining it.  The
    search order and its tie rule are in the module docstring; the same
    ``Witness`` comes back in either argument order."""
    side, swapped = _larger_side(*_levels(H, H2))
    num, den, X, W, m = side[:5]
    point = PointRZ(Fraction(X, W), m) if num else None
    if swapped:
        return Witness(Fraction(num, den), point, H2, H)
    return Witness(Fraction(num, den), point, H, H2)


def chabauty_distance(H: ClosedSubgroup, H2: ClosedSubgroup, tol) -> DistanceBracket:
    """The distance d(H, H2) as the exact bracket [d, d].

    d = max(S(H, H2), S(H2, H)), S as in ``_larger_side``; it is always
    rational (see ``_strip_sup`` for the strips), so lo == hi.  ``tol``
    bounds the bracket width, which is 0; it must still be > 0.  Equal
    subgroups give [0, 0]: their levels at the common scale are equal,
    since ``from_levels`` reads the one canonical group back at any scale.
    """
    if as_fraction(tol).numerator <= 0:
        raise ToleranceInvalid("tol must be > 0")
    side = _larger_side(*_levels(H, H2))[0]
    d = Fraction(side[0], side[1])
    return DistanceBracket(d, d)


class LimitReport(Record):
    # distances: a DistanceBracket per sequence entry
    __slots__ = ("distances", "passed")


def verify_limit(
    seq: Sequence[ClosedSubgroup],
    limit: ClosedSubgroup,
    tol,
    tail: int,
) -> LimitReport:
    """Check that the last ``tail`` members of ``seq`` are within tol of the limit."""
    try:
        seq = tuple(seq)
    except TypeError:
        raise InvalidSequence(f"a sequence of subgroups, not {type(seq).__name__}") from None
    if not seq:
        raise InvalidSequence("sequence must be nonempty")
    tail = as_int(tail, "tail")
    if not (1 <= tail <= len(seq)):
        raise InvalidSequence("tail must satisfy 1 <= tail <= len(seq)")
    tol = as_fraction(tol)
    brackets = tuple(chabauty_distance(Hk, limit, tol) for Hk in seq)
    ok = all(br.hi <= tol for br in brackets[-tail:])
    return LimitReport(brackets, ok)


class InvalidSequence(InvalidParameter):
    pass
