"""Brute-force oracles kept independent of the classifier and the charts.

The ball oracle consults none of the canonical-form machinery: it clears
the generators' denominators by their lcm d, reduces the integer
generator columns to a triangular basis (the Hermite normal form of a
2 x k matrix) by its own column operations, then enumerates the ball from
that basis, in integers over d.  Feasible on everything the suites
sample.

The totient here is computed multiplicatively from a trial-division
factorization, as a counterweight to the coprime-enumeration winding
count.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import floor, lcm
from typing import Optional, Sequence, Tuple

from .rationals import as_fraction, as_int, as_points
from .subgroups import BallElements, InvalidParameter, check_ball_size


def _scaled_rows(gens: Sequence[Tuple]):
    """Nonzero generators as integer rows (x*d, level) plus the lcm d."""
    pts = [(x, m) for x, m in as_points(gens) if x != 0 or m != 0]
    if not pts:
        return [], 1
    d = lcm(*(x.denominator for x, _ in pts))
    return [(int(x * d), m) for x, m in pts], d


def lattice_basis(
    rows: Sequence[Tuple[int, int]],
) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
    """Triangular basis (horiz, lev) of the lattice spanned by integer columns.

    ``horiz`` is the a > 0 with (a, 0) generating the level-0 sublattice,
    or None when that sublattice is {0}.  ``lev`` is the (q, n) with the
    least positive level n, its x reduced to 0 <= q < a when ``horiz``
    exists, or None when every column has level 0.  This is the Hermite
    normal form of the 2 x k matrix with the columns as its columns.

    Column reduction: while two columns have a nonzero level, the one
    with the smallest |level| is subtracted from the others until their
    levels are below it; columns that reach level 0 join the horizontal
    ones, whose first coordinates fold into one by Euclid's loop.
    """
    flat = [p for p, m in rows if m == 0]
    tall = [(p, m) for p, m in rows if m != 0]
    while len(tall) > 1:
        tall.sort(key=lambda col: abs(col[1]))
        (p0, m0), rest = tall[0], tall[1:]
        tall = [(p0, m0)]
        for p, m in rest:
            k = m // m0
            p, m = p - k * p0, m - k * m0
            if m:
                tall.append((p, m))
            else:
                flat.append(p)
    a = 0
    for p in flat:
        while p:
            a, p = p, a % p
    horiz = abs(a) or None
    if not tall:
        return horiz, None
    q, n = tall[0]
    if n < 0:
        q, n = -q, -n
    return horiz, (q % horiz if horiz else q, n)


def oracle_closure_ball(gens: Sequence[Tuple], r) -> BallElements:
    """All points of the generated subgroup inside the closed ball B(0, r).

    Lattice route: triangular basis of the cleared-denominator generator
    lattice (``lattice_basis``), then direct enumeration from that basis.
    The points come as int pairs over the lcm d of the generators'
    denominators.  A ball over ``MAX_BALL_POINTS`` raises
    ``InvalidParameter`` before enumeration.
    """
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParameter("ball radius must be > 0")
    rows, d = _scaled_rows(gens)
    if not rows:
        return BallElements(1, frozenset({(0, 0)}), frozenset())

    horiz, lev = lattice_basis(rows)

    R = r.numerator * d // r.denominator  # |x*d| <= R iff |x| <= r
    q, n = lev or (0, 0)
    jmax = floor(r) // n if n else 0
    if horiz is None and q:
        jmax = min(jmax, R // abs(q))  # only (j*q, j*n) on level j*n
    check_ball_size(2 * jmax + 1, "levels", r)

    def columns():
        for j in range(-jmax, jmax + 1):
            x0 = j * q
            if horiz is None:
                yield j * n, range(x0, x0 + 1)
            else:
                yield j * n, range(x0 - (R + x0) // horiz * horiz, R + 1, horiz)

    def count(x0):
        """Points of x0 + horiz*Z in [-R, R], by arithmetic: ``len`` of a
        range past 2^63 overflows."""
        return (R - x0) // horiz + (R + x0) // horiz + 1 if horiz else 1

    check_ball_size(sum(count(j * q) for j in range(-jmax, jmax + 1)), "points", r)
    points = frozenset(chain.from_iterable(zip(xs, repeat(m)) for m, xs in columns()))
    return BallElements(d, points, frozenset())


def totient(b: int) -> int:
    """Euler's phi via the multiplicative product over prime factors."""
    b = as_int(b, "b")
    if b <= 0:
        raise InvalidParameter("totient is defined for positive integers")
    result = b
    m = b
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result
