"""Brute-force oracles kept independent of the classifier and the charts.

Two routes, neither consulting the canonical-form machinery:

  * a combination sweep that enumerates integer combinations of the
    generators under a doubling coefficient bound with a stabilization
    check.  Sound, but the minimal coefficients realizing a small lattice
    element grow like the cleared denominator, so the sweep is only
    feasible on tame inputs and guards itself with a work budget;
  * a lattice route that clears denominators, reduces the integer
    generator columns to a triangular basis (the Hermite normal form of a
    2 x k matrix) by its own column operations, then enumerates the ball
    from that basis.  Feasible on everything the suites sample.

Both use only integer arithmetic from the standard library.

The totient here is computed multiplicatively from a trial-division
factorization, as a counterweight to the coprime-enumeration winding
count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, lcm
from typing import Optional, Sequence, Tuple

from .rationals import as_fraction
from .subgroups import BallElements, InvalidParameter, PointRZ


class NonDiscreteSuspected(RuntimeError):
    """The combination sweep kept producing new in-ball points.

    Rational generators always span a discrete group, so hitting this
    signals a bug (or genuinely irrational input smuggled in).
    """


class SweepInfeasible(RuntimeError):
    """The doubling sweep exceeded its work budget before stabilizing.

    Not an error in the input: minimal Bezout coefficients scale with the
    cleared denominator, which puts some rational inputs beyond any full
    coefficient-product enumeration.  Use the lattice route instead.
    """


_COEFF_CAP = 1 << 13
# Combination rows per doubling step.  The pure-Python sweep runs about
# 10^7 rows per second (CPython 3.11, one core of a Xeon VM), so a step
# the budget accepts finishes in about a second.
_SWEEP_BUDGET = 8_000_000


def _scaled_rows(gens: Sequence[Tuple]):
    """Nonzero generators as integer rows (x*d, level) plus the lcm d."""
    pts = [(as_fraction(x), int(m)) for x, m in gens]
    pts = [(x, m) for x, m in pts if x != 0 or m != 0]
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
    """
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParameter("ball radius must be > 0")
    rows, d = _scaled_rows(gens)
    if not rows:
        return BallElements(frozenset({PointRZ(Fraction(0), 0)}), frozenset())

    horiz, lev = lattice_basis(rows)

    points = set()
    rd = r * d  # |x*d| <= r*d
    if lev is None:
        levels = [(0, 0)]
    else:
        q, n = lev
        jmax = floor(r / n)
        levels = [(j * q, j * n) for j in range(-jmax, jmax + 1)]
    for x0, m in levels:
        if horiz is None:
            if abs(x0) <= rd:
                points.add(PointRZ(Fraction(x0, d), m))
            continue
        imin = -floor((rd + x0) / horiz)
        imax = floor((rd - x0) / horiz)
        for i in range(imin, imax + 1):
            points.add(PointRZ(Fraction(x0 + i * horiz, d), m))
    return BallElements(frozenset(points), frozenset())


def oracle_closure_ball_sweep(
    gens: Sequence[Tuple],
    r,
    max_coeff: int = 8,
) -> BallElements:
    """Combination-sweep route: coefficients bounded by max_coeff, the
    bound doubling until the in-ball point set is identical on two
    consecutive doublings."""
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParameter("ball radius must be > 0")
    rows, d = _scaled_rows(gens)
    if not rows:
        return BallElements(frozenset({PointRZ(Fraction(0), 0)}), frozenset())

    coeff = max_coeff
    prev, stable = None, 0
    while True:
        if (2 * coeff + 1) ** len(rows) > _SWEEP_BUDGET:
            raise SweepInfeasible(
                f"coefficient bound {coeff} over {len(rows)} generators "
                "exceeds the sweep budget"
            )
        combos = _in_ball_combos(rows, coeff, r, d)
        if prev is not None and combos == prev:
            stable += 1
            if stable >= 2:
                break
        else:
            stable = 0
        prev = combos
        coeff *= 2
        if coeff > _COEFF_CAP:
            raise NonDiscreteSuspected(
                f"no stabilization below coefficient bound {_COEFF_CAP}"
            )

    points = frozenset(PointRZ(Fraction(p, d), m) for p, m in combos)
    return BallElements(points, frozenset())


def _in_ball_combos(rows, coeff: int, r: Fraction, d: int):
    """Every combination sum(c_i * row_i) with |c_i| <= coeff inside the
    ball, as integer (x*d, level) pairs."""
    rn, rden = r.numerator, r.denominator
    xmax = rn * d
    span = range(-coeff, coeff + 1)
    (p0, m0), rest = rows[0], rows[1:]
    partial = [
        (sum(c * p for c, (p, _) in zip(cs, rest)),
         sum(c * m for c, (_, m) in zip(cs, rest)))
        for cs in product(span, repeat=len(rest))
    ]
    found = set()
    for c0 in span:
        x0, l0 = c0 * p0, c0 * m0
        for x, m in partial:
            x += x0
            m += l0
            if abs(x) * rden <= xmax and abs(m) * rden <= rn:
                found.add((x, m))
    return found


def totient(b: int) -> int:
    """Euler's phi via the multiplicative product over prime factors."""
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
