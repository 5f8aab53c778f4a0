"""The distance kernel as it stood before its single flat pass: the
reference the kernel in ``chabauty_rz.metric`` is checked against.

``_larger_side`` and ``_discrete_sup`` and their helpers are the earlier
kernel's code, kept unedited: levels as ``IntLevels`` records at the common
scale, a ``consider`` closure per candidate, a seed set and the outward
walk on level 0 from X = 0.  ``common_levels`` builds the records without
``IntLevels.over``, which the package no longer has.  ``distance`` and
``witness`` are ``chabauty_distance`` and ``distance_witness`` on top.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

from chabauty_rz import MAX_BALL_POINTS, DistanceBracket, InvalidParameter, PointRZ, Witness
from chabauty_rz.subgroups import LINE, ClosedSubgroup, IntLevels, int_levels


def common_levels(H, K):
    """The integer levels of H and K at one common scale."""
    levels = int_levels(H), int_levels(K)
    D = lcm(levels[0].scale, levels[1].scale)
    return [IntLevels(D, D // L.scale * L.g, D // L.scale * L.q, L.n, L.line) for L in levels]


def distance(H, K) -> DistanceBracket:
    """``chabauty_distance`` on the earlier kernel."""
    A, B = common_levels(H, K)
    if A == B:
        return DistanceBracket(Fraction(0), Fraction(0))
    side, _ = _larger_side(A, B, ties=False)
    d = Fraction(side[0], side[1])
    return DistanceBracket(d, d)


def witness(H, K) -> Witness:
    """``distance_witness`` on the earlier kernel."""
    side, swapped = _larger_side(*common_levels(H, K))
    return _witness(side, K, H) if swapped else _witness(side, H, K)


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


def _bound(A: IntLevels, B: IntLevels):
    """S(A, B) = sup over p in A of min(1/|p|, delta(p, B)) before any
    search: (side, top, den) with S <= top/den.  For a strip, side is S
    (``_strip_sup``) and top/den its value; else side is None and top/D
    is ``_discrete_sup``'s cap at the common scale D.

    Only the level of B through p matters: any other level is at height
    distance >= 1, while min(1/|p|, dist(x, B_m)) <= 1 (for |p| < 1 the
    point lies on level 0 and B_0 contains 0).  So a point (x, m) scores
    min(1/max(|x|, |m|), dist(x, B_m)), with dist(x, empty) = infinity:
    never above 1, nor above (s // 2) / D when B holds each level of A as
    a lattice of spacing s.  Both groups are symmetric under p -> -p, so
    only levels m >= 0 are walked, and only while 1/m can beat the best.
    """
    if A.line:
        side = _strip_sup(A, B)
        return side, side[0], side[1]
    D = A.scale
    if B.g and not B.line and (A.n % B.n == 0 if B.n else not A.n):
        return None, min(D, B.g // 2), D
    return None, D, D


def _witness(side, inner: ClosedSubgroup, outer: ClosedSubgroup) -> Witness:
    num, den, X, W, m = side
    point = PointRZ(Fraction(X, W), m) if num else None
    return Witness(Fraction(num, den), point, inner, outer)


def _larger_side(H: IntLevels, K: IntLevels, ties: bool = True):
    """The larger of S(H, K) and S(K, H), and whether it is S(K, H), in the
    order of the module docstring.  A tie gives S(H, K), unless ``ties`` is
    False: then only the value counts, and an equal side is skipped."""
    hk, kh = _bound(H, K), _bound(K, H)
    # a strip's side first, as it is known; then the larger bound, then the
    # lesser levels
    swapped = (kh[0] is not None, kh[1] * hk[2], H) > (hk[0] is not None, hk[1] * kh[2], K)
    A, B, (side, top, _), (other, otop, den) = (K, H, kh, hk) if swapped else (H, K, hk, kh)
    work = 0
    if side is None:
        side, work = _discrete_sup(A, B, top, 0, 1, 0)
    bn, bd = side[0], side[1]
    tie = ties and swapped  # an equal score wins for S(H, K), searched second
    if other is None and otop * bd - bn * den + tie > 0:
        low = tie and bn > 0  # then search from just below the score
        W = bd * den if low else 1
        other, _ = _discrete_sup(B, A, otop, bn * W - low, bd * W, work)
    if other is not None and other[0] * bd - bn * other[1] + tie > 0:
        return other, not swapped
    return side, swapped


def _discrete_sup(A: IntLevels, B: IntLevels, top: int, bn: int, bd: int, work: int):
    """S for a discrete A, all in ints at the common scale D, if it beats
    the score bn/bd, below ``_bound``'s cap top/D; 0 when A lies in B.

    The best score is kept as the fraction bn/bd.  A point (X, m) has
    1/|p| = D/a with a = max(|X|, m*D), so only points with a*bn < D*bd
    can beat the best score.  When B's level is a lattice, dist is
    periodic along A's level with period P = s/gcd(g, s) steps, so the
    point of least |X| in each of the P residue classes suffices, taken
    in decreasing order of dist until dist/D cannot beat the best score;
    the points inside the bound are enumerated instead when they are
    fewer than P.  Every loop stops once the best score is 1, and the
    level loop once it reaches the cap.  Each visited level and candidate
    point adds one unit per 64-bit word of D to ``work``, so that the
    arithmetic on D's digits is charged too, and the search raises
    ``InvalidParameter`` once the work passes ``MAX_BALL_POINTS``.
    Returns the side, (num, den, X, D, m) for the score num/den attained
    at (X/D, m), or None when no point beats bn/bd; and the work.
    """
    if _levels_subset(A, B):
        return (0, 1, 0, 1, 0), work
    D = A.scale
    DD = D * D
    unit = (D.bit_length() + 63) // 64
    wx, wm = None, 0

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

    # On a lattice level the classes of A's points modulo B's repeat with
    # period P = s / h.
    h = gcd(Ag, B.g)
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
    return (None if wx is None else (bn, bd, wx, D, wm)), work


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
