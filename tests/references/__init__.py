"""Every fast kernel against the slower reference it replaced, from one table.

Each entry of ``ENTRIES`` names a kernel, its reference and the inputs they
are compared on: pinned argument tuples, checked first, and a hypothesis
strategy of argument tuples from ``strategies``, drawn ``examples`` times.
They must give equal values or, for an entry with ``errors``, also raise
the same ``ValueError`` type with the same message; an entry with ``agree``
compares the two outcomes by that test instead.  The references are
safety code: they are never sampled down or loosened.

Each entry runs from one test, which calls its ``run`` (or ``check`` on
each pin, for a test with one case per pin; such an entry has no draws).
To add a reference, add one entry here and one test that runs it.
"""

import functools
import operator
import random
from fractions import Fraction as F
from math import lcm, pi
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_rz import (
    INF, DistanceBracket, PointRZ, TypeI, TypeII, TypeIII, TypeIV, blowup_total_length,
    chabauty_distance, classify_from_generators, denjoy_xi, distance_witness, elements_in_ball,
    hausdorff_inclusion_ok, membership, oracle_closure_ball, parse_subgroup, subgroup_subset,
    totient, winding_count, winding_count_sampled)
from chabauty_rz.denjoy import _first_unresolved, _winding, blowup_interval_start
from chabauty_rz.literals import parse_rational
from chabauty_rz.metric import reference_subset
from chabauty_rz.oracle import lattice_basis
from chabauty_rz.subgroups import LINE, distance_point_to_subgroup, int_levels, level_set

from strategies import (
    circle_points, generator_lists_st, label_indices, literal_texts, rational_texts, subgroups_st)

from . import distance_parent, literal_reference
from .balls import fraction_points, oracle_closure_ball_sweep
from .blowup import (
    edge_points, full_layout, mirrored_points, ref_farey_layout, ref_first_unresolved,
    ref_layout, ref_progress, ref_wind, ref_xi)


class Refusal(NamedTuple):
    """The type and message of a ``ValueError``."""

    type: type
    message: str


def outcome(fn, *args):
    """``fn(*args)``, or the ``Refusal`` of the ``ValueError`` it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return Refusal(type(exc), str(exc))


class Entry:
    """A kernel, its reference, and the inputs they are compared on."""

    def __init__(self, kernel, reference, pins=(), draws=None, examples=0, errors=False,
                 agree=operator.eq):
        self.kernel, self.reference = kernel, reference
        self.pins, self.draws, self.examples = list(pins), draws, examples
        self.read = outcome if errors else lambda fn, *args: fn(*args)
        self.agree = agree

    def check(self, *args):
        """Kernel and reference agree on ``args``."""
        assert self.agree(self.read(self.kernel, *args), self.read(self.reference, *args)), args

    def run(self):
        """Check every pin, then ``examples`` draws."""
        for args in self.pins:
            self.check(*args)
        if self.draws is not None:
            # every entry draws through the same function, so no example
            # database: a failure saved for one would replay on another
            settings(max_examples=self.examples, deadline=None, database=None)(
                given(self.draws)(lambda args: self.check(*args)))()


# -- blow-up: the Farey layout, stage one (the least unresolved sample) and
# stage two (the turns of one circle) against the loops they replaced ---------

BENCH_KEYS = [(4096, 64), (4096, 128), (4096, 256)]
_draw = random.Random(16)
DRAWN_KEYS = [(_draw.randint(8, 6000), _draw.randint(12, 120)) for _ in range(6)]

#: Keys whose least unresolved sample lies before the middle of I_{1/2}, in
#: the forward half of the walk.
FORWARD_KEYS = {(4096, 50): 1773, (4096, 127): 1733}

#: Keys whose least unresolved sample lies past the middle of I_{1/2}, in
#: the half of the walk that runs over the mirrors.
MIRRORED_KEYS = {(4096, 62): 3039, (4096, 113): 3023, (4096, 156): 3479}


def _stage_one_keys():
    rng = random.Random(15)
    drawn = {(rng.randint(8, 6000), rng.randint(1, 120)) for _ in range(1550)}
    return (BENCH_KEYS + list(FORWARD_KEYS) + list(MIRRORED_KEYS)
            + sorted(drawn, key=lambda key: key[1]))


def _coarse_keys():
    """(b, grid, B) on coarse grids, where steps longer than pi are common."""
    rng = random.Random(19)
    keys = []
    for _ in range(150):
        grid, B = rng.randint(8, 300), rng.randint(1, 60)
        keys += [(b, grid, B) for b in rng.sample(range(1, B + 1), min(B, 4))]
    return keys


#: Stage one run afresh for each key, past the package's bounded cache, and
#: kept, so that a test's own checks on the keys reuse its answers.
first_unresolved = functools.cache(_first_unresolved.__wrapped__)

#: The circles b = m/k with m % k == 0, for k <= 6 and m <= 12.
CIRCLES = sorted({m // k for k in range(1, 7) for m in range(1, 13) if m % k == 0})


def ref_winding(b, grid, B):
    return round(ref_progress(b, grid, B) / (2 * pi))


def layout_at(B, i):
    """L_B, the start of the i-th label, and ``denjoy_xi`` on its band edges."""
    label = ref_layout(B)[0][i]
    return (blowup_total_length(B), blowup_interval_start(label, B),
            [denjoy_xi(u, B) for u in edge_points(B, i)])


def ref_layout_at(B, i):
    _, _, starts, total = ref_layout(B)
    return total, starts[i], [ref_xi(u, B) for u in edge_points(B, i)]


def in_sequence(wind):
    """Sampled counts of a list of (k, m) at one key, in order."""
    return lambda grid, B, pairs: [outcome(wind, k, m, grid, B) for k, m in pairs]


# -- balls and levels ----------------------------------------------------------

def _sympy_basis(hnf, rows):
    """(horiz, lev) read off sympy's Hermite normal form of the columns."""
    from sympy import Matrix

    H = hnf(Matrix([[p for p, _ in rows], [m for _, m in rows]]))
    horiz, lev = None, None
    for j in range(H.cols):
        p, m = int(H[0, j]), int(H[1, j])
        if m == 0:
            horiz = abs(p)
        else:
            lev = (p, m) if m > 0 else (-p, -m)
    return horiz, lev


def _ball_from_basis(horiz, lev, d, r):
    """Brute-force ball of the lattice Z(horiz, 0) + Z lev, scaled by 1/d."""
    a, (q, n) = horiz or 0, lev or (0, 0)
    # |i*a + j*q| <= r*d with |j| <= r and 0 <= q < a forces |i| <= r*d/a + r
    bound = r * d // a + r + 1 if a else 0
    points = set()
    for j in range(-r, r + 1):
        for i in range(-bound, bound + 1):
            x, m = i * a + j * q, j * n
            if abs(x) <= r * d and abs(m) <= r:
                points.add(PointRZ(F(x, d), m))
    return points


def _integer_rows(gens):
    """The nonzero generators as integer rows over the lcm d of their denominators."""
    rows = [(x, m) for x, m in gens if x or m]
    d = lcm(*(x.denominator for x, _ in rows)) if rows else 1
    return [(int(x * d), m) for x, m in rows], d


def basis_and_ball(gens, r):
    """``lattice_basis`` of the rows and the oracle's ball, as exact points."""
    rows, _ = _integer_rows(gens)
    return rows and (lattice_basis(rows), fraction_points(oracle_closure_ball(gens, r)))


def sympy_basis_and_ball(gens, r):
    rows, d = _integer_rows(gens)
    if not rows:
        return rows
    from sympy.matrices.normalforms import hermite_normal_form

    horiz, lev = _sympy_basis(hermite_normal_form, rows)
    return (horiz, lev), _ball_from_basis(horiz, lev, d, r)


def level_set_at_scale(H, m):
    """``level_set`` in integers over ``int_levels(H).scale``: the offset
    reduced mod the spacing, and spacing 0 for a single point."""
    D = int_levels(H).scale
    want = level_set(H, m)
    if want is None or want is LINE:
        return want
    offset, spacing = want
    if spacing is None:
        return (offset * D, 0)
    return ((offset * D) % (spacing * D), spacing * D)


# -- distances -----------------------------------------------------------------

TOL = F(1, 1000)

#: Pairs with their exact distances: close lattices, a sheared pair, strips.
EXACT = [
    ("I(alpha=10)", "I(alpha=11)", F(1, 22)),
    ("I(alpha=1)", "I(alpha=2)", F(1, 2)),
    ("III(alpha=20,beta=0,n=1)", "III(alpha=21,beta=0,n=1)", F(1, 42)),
    ("I(alpha=1000)", "I(alpha=1001)", F(1, 2002)),
    ("III(alpha=4,beta=1/3,n=1)", "III(alpha=5,beta=2/5,n=1)", F(37, 300)),
    ("I(alpha=inf)", "IV(n=1)", F(1)),
    # One point per level far from 0, dense lattices against sparse groups
    # and a strip over a dense lattice: each answers in bounded work only
    # through a bound on the levels (|x|, or half B's spacing) or the stop
    # at 1.
    ("II(gamma=10000000000,n=1)", "I(alpha=1)", F(1)),
    ("II(gamma=-10000000000,n=3)", "I(alpha=7/3)", F(6, 7)),
    ("III(alpha=1000000,beta=0,n=1)", "II(gamma=0,n=1)", F(1)),
    ("III(alpha=100000,beta=0,n=1)", "II(gamma=1/3,n=1)", F(1)),
    ("IV(n=1)", "III(alpha=10000000000,beta=0,n=1)", F(1, 20000000000)),
    ("III(alpha=62/1128827,beta=0,n=58)", "III(alpha=4743898516,beta=0,n=58)", F(1)),
    ("II(gamma=0,n=1)", "III(alpha=1000000000,beta=1/2,n=1)", F(1)),
    # Each answers only when the side with the larger bound is searched
    # first: in the first pair the side of the denser group, which meets
    # an empty level near 0; in the second the sparse group's side is
    # skipped, as its bound is below the dense group's score.
    ("III(alpha=7667438/1615597,beta=95/97,n=4)", "III(alpha=36406/43,beta=7/97,n=1)", F(1)),
    ("III(alpha=8,beta=90/97,n=4)", "III(alpha=3510483/3898,beta=11/97,n=4)",
     F(28376135, 454022468)),
    # A dense lattice against a sparse one, answered in a few candidates
    # only because the walk on level 0 starts past |x| = d: below it every
    # point lies within |x| of 0 in the other group.
    ("I(alpha=2000001/2)", "I(alpha=1/10000000)", F(2000001, 2000002)),
]


def parsed(fn):
    """``fn`` on the two literals of an ``EXACT`` row."""
    return lambda left, right, d: fn(parse_subgroup(left), parse_subgroup(right))


def both_ways(H, K):
    return chabauty_distance(H, K, TOL), chabauty_distance(K, H, TOL)


def drawn_pairs(count, bound, seed):
    """``count`` seeded pairs of every family, with numerators and
    denominators up to ``bound``, and more of family III, where the two
    sides cost the most unequally."""
    rng = random.Random(seed)

    def q():
        return F(rng.randint(1, bound), rng.randint(1, bound))

    def group():
        family, n = rng.randrange(6), rng.randint(1, 6)
        if family == 0:
            return TypeI(q())
        if family == 1:
            return TypeII(rng.choice((q(), -q())), n)
        if family == 2:
            return TypeI(INF) if rng.random() < 0.5 else TypeIV(n)
        return TypeIII(q(), q() % 1, n)

    return [(group(), group()) for _ in range(count)]


#: The benchmark's metric-close ladder, and the mirror x -> -x of each pair
#: it changes; the last two are its headline pairs.
LADDER = [
    ("I(alpha=10)", "I(alpha=11)"), ("I(alpha=20)", "I(alpha=21)"),
    ("I(alpha=40)", "I(alpha=41)"), ("I(alpha=5)", "I(alpha=6)"),
    ("I(alpha=15)", "I(alpha=16)"),
    ("III(alpha=2,beta=0,n=1)", "III(alpha=3,beta=0,n=1)"),
    ("III(alpha=3,beta=0,n=1)", "III(alpha=4,beta=0,n=1)"),
    ("III(alpha=4,beta=0,n=1)", "III(alpha=5,beta=0,n=1)"),
    ("III(alpha=3,beta=0,n=2)", "III(alpha=4,beta=0,n=2)"),
    ("III(alpha=4,beta=1/3,n=1)", "III(alpha=5,beta=2/5,n=1)"),
    ("III(alpha=4,beta=-1/3,n=1)", "III(alpha=5,beta=-2/5,n=1)"),
    ("III(alpha=2,beta=1/2,n=1)", "III(alpha=3,beta=1/3,n=1)"),
    ("III(alpha=2,beta=-1/2,n=1)", "III(alpha=3,beta=-1/3,n=1)"),
    ("III(alpha=5,beta=1/5,n=1)", "III(alpha=6,beta=1/6,n=1)"),
    ("III(alpha=5,beta=-1/5,n=1)", "III(alpha=6,beta=-1/6,n=1)"),
    ("II(gamma=1/10,n=1)", "II(gamma=1/11,n=1)"),
    ("II(gamma=-1/10,n=1)", "II(gamma=-1/11,n=1)"),
    ("I(alpha=inf)", "IV(n=1)"), ("I(alpha=inf)", "I(alpha=5)"),
    ("I(alpha=inf)", "III(alpha=10,beta=0,n=1)"), ("IV(n=1)", "III(alpha=5,beta=0,n=1)"),
    ("IV(n=2)", "III(alpha=3,beta=1/2,n=1)"), ("IV(n=1)", "IV(n=2)"),
    ("I(alpha=inf)", "II(gamma=1/2,n=1)"), ("I(alpha=inf)", "II(gamma=-1/2,n=1)"),
    ("IV(n=3)", "III(alpha=2,beta=1/3,n=3)"), ("IV(n=3)", "III(alpha=2,beta=-1/3,n=3)"),
    ("III(alpha=20,beta=0,n=1)", "III(alpha=21,beta=0,n=1)"),
    ("I(alpha=1000)", "I(alpha=1001)"),
]


def in_both_orders(distance, witness):
    """The outcomes of a kernel's distance and witness on (H, K), then on
    (K, H)."""
    return lambda H, K: tuple(outcome(fn, *pair) for pair in ((H, K), (K, H))
                              for fn in (distance, witness))


def answered_alike(got, want):
    """Each outcome the same, except where the reference refuses: there the
    kernel may answer, as its walk on level 0 starts at a floor where the
    earlier kernel's started at 0, so it spends no more work."""
    return all(g == w or isinstance(w, Refusal) and not isinstance(g, Refusal)
               for g, w in zip(got, want))


def witness_values(H, K):
    """The witness's value from either side, and the distance."""
    return (distance_witness(H, K).value, distance_witness(K, H).value,
            chabauty_distance(H, K, TOL).lo)


def witness_by_oracle(H, K):
    """The value the ``Fraction`` oracles give the witness, three times:
    min(1/|p|, the distance from p to the outer group) for a point p of the
    inner group, or 0 for no point between equal groups; None otherwise."""
    w = distance_witness(H, K)
    p = w.point
    if p is None or H == K:
        value = 0 if p is None and H == K else None
    elif not membership(w.inner, p):
        value = None
    else:
        size = max(abs(p.x), abs(p.level))
        value = min(1 / F(size), distance_point_to_subgroup(p, w.outer))
    return (value,) * 3


def by_inclusion(H, K):
    """[d, d] for the kernel's lower end d, when ``hausdorff_inclusion_ok``
    breaks at d (for d > 0) and holds both ways just above d; else None."""
    d = chabauty_distance(H, K, TOL).lo
    breaks = d == 0 or not (hausdorff_inclusion_ok(H, K, d) and hausdorff_inclusion_ok(K, H, d))
    eps = d + F(1, 10**9)
    holds = hausdorff_inclusion_ok(H, K, eps) and hausdorff_inclusion_ok(K, H, eps)
    return DistanceBracket(d, d) if breaks and holds else None


pairs = st.tuples(subgroups_st(), subgroups_st())


def isdigit_only(text):
    """Does ``text`` hold a character that ``str.isdigit`` accepts but
    ``int()`` does not read?  On those the reference parser differs on
    purpose (see ``literal_reference``)."""
    return any(c.isdigit() and not c.isdecimal() for c in text)


def texts(strategy):
    return st.tuples(strategy.filter(lambda text: not isdigit_only(text)))


ENTRIES = {
    "farey-layout": Entry(full_layout, ref_farey_layout,
                          pins=[(B,) for B in [*range(1, 65), 128, 255, 256, 512]]),
    "layout": Entry(layout_at, ref_layout_at, draws=label_indices, examples=100),
    "xi": Entry(denjoy_xi, ref_xi, examples=300,
                pins=[(F(9, 17), 2),  # guard band past I_0
                      (F(25, 34), 2)],  # middle of I_{1/2}
                draws=st.tuples(circle_points(), st.integers(1, 40))),
    "xi-mirrored": Entry(lambda B: [denjoy_xi(u, B) for u in mirrored_points(B)],
                         lambda B: [ref_xi(u, B) for u in mirrored_points(B)],
                         pins=[(2,), (3,), (5,), (8,), (13,)]),
    "stage-one": Entry(first_unresolved, ref_first_unresolved, pins=_stage_one_keys()),
    "stage-one-at-precision-one": Entry(first_unresolved, ref_first_unresolved,
                                        pins=[(grid, 1) for grid in range(8, 4097)]),
    "stage-two": Entry(lambda grid, B: [_winding(b, grid, B) for b in CIRCLES if b <= B],
                       lambda grid, B: [ref_winding(b, grid, B) for b in CIRCLES if b <= B],
                       pins=BENCH_KEYS + DRAWN_KEYS),
    "stage-two-coarse": Entry(_winding, ref_winding, pins=_coarse_keys()),
    # at B = 1 and 2 every grid from 8 to 200 has an unresolved sample, so
    # those draws compare the UnresolvedSample message; B = 8 resolves some
    "wind-sampled": Entry(winding_count_sampled, ref_wind, errors=True, examples=150,
                          draws=st.tuples(st.integers(1, 4), st.integers(1, 12),
                                          st.integers(8, 200), st.sampled_from([1, 2, 8, 8]))),
    "wind-sampled-in-sequence": Entry(
        in_sequence(winding_count_sampled), in_sequence(ref_wind), examples=25,
        pins=[(200, 20, [(1, 1), (2, 2), (1, 3)])],
        draws=st.tuples(st.integers(8, 200), st.sampled_from([1, 2, 8, 13, 20]),
                        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 12)),
                                 min_size=3, max_size=6))),
    "winding-count": Entry(lambda k, b: winding_count(k, k * b), lambda k, b: totient(b),
                           draws=st.tuples(st.integers(1, 6), st.integers(1, 400)), examples=60),
    "parse-subgroup": Entry(parse_subgroup, literal_reference.parse_subgroup, errors=True,
                            pins=[("gen[ (1/2,0) (1/3,0) ]",), ("I(alpha= 1/0)",),
                                  ("II(gamma= 1/0,n=1)",),
                                  # trailing input is found before the parameters are checked
                                  ("IV(n=0)(",)],
                            draws=texts(literal_texts), examples=400),
    "parse-rational": Entry(parse_rational, literal_reference.parse_rational, errors=True,
                            draws=texts(rational_texts), examples=300),
    "ball-classify": Entry(lambda gens, r: elements_in_ball(classify_from_generators(gens), r),
                           oracle_closure_ball, examples=150,
                           draws=st.tuples(generator_lists_st(), st.just(4))),
    "ball-sweep": Entry(oracle_closure_ball, oracle_closure_ball_sweep, pins=[
        ([], 3),
        ([(F(1, 2), 0), (F(1, 3), 0)], 3),
        ([(F(3, 2), 2)], 3),
        ([(F(1, 2), 2), (F(1, 3), 3)], 3),
        ([(F(-2, 3), 1), (F(1, 2), -1)], 3),
    ]),
    "hnf": Entry(basis_and_ball, sympy_basis_and_ball, examples=300,
                 draws=st.tuples(generator_lists_st(), st.integers(1, 3))),
    "int-levels": Entry(lambda H, m: int_levels(H).at(m), level_set_at_scale, examples=150,
                        draws=st.tuples(subgroups_st(), st.integers(-12, 12))),
    "distance-exact": Entry(parsed(both_ways), lambda left, right, d: (DistanceBracket(d, d),) * 2,
                            pins=EXACT),
    "witness-exact": Entry(parsed(witness_values), parsed(witness_by_oracle), pins=EXACT),
    "witness": Entry(witness_values, witness_by_oracle, draws=pairs, examples=300),
    # the same value and witness, or the same refusal, in either argument order
    "distance-symmetric": Entry(
        lambda H, K: (chabauty_distance(H, K, TOL), distance_witness(H, K)),
        lambda H, K: (chabauty_distance(K, H, TOL), distance_witness(K, H)),
        errors=True,
        # the last rows of EXACT: two pairs ordered by their bounds, and the
        # pair answered through the level-0 floor
        pins=[(parse_subgroup(left), parse_subgroup(right)) for left, right, _ in EXACT[-3:]]
        # refused over the work cap in either order
        + [(TypeII(F(0), 1), TypeII(F(1, 10**12), 1))]
        # at this size none reaches the work cap
        + drawn_pairs(500, 10**5, 25)),
    # the kernel against the earlier one it replaced: value, witness point
    # and side, and refusal, in both argument orders
    "distance-parent": Entry(
        in_both_orders(lambda H, K: chabauty_distance(H, K, TOL), distance_witness),
        in_both_orders(distance_parent.distance, distance_parent.witness), agree=answered_alike,
        pins=[(parse_subgroup(left), parse_subgroup(right)) for left, right in LADDER]
        + [(TypeII(F(0), 1), TypeII(F(1, 10**1000), 1))]  # refused by both
        # small numbers too, where equal scores and long class walks are common
        + drawn_pairs(2500, 300, 26) + drawn_pairs(2500, 10**5, 27) + drawn_pairs(2000, 30, 28)),
    "subset": Entry(subgroup_subset, reference_subset, draws=pairs, examples=300),
    "distance-inclusion": Entry(
        lambda H, K: chabauty_distance(H, K, TOL), by_inclusion, draws=pairs, examples=300,
        pins=[
            # Maximisers left of 0 on a level above 0:
            (TypeIII(F(3, 4), F(4, 5), 1), TypeIII(F(2, 3), F(1, 2), 1)),
            (TypeIII(F(1, 9), F(1, 6), 3), TypeII(F(3, 2), 3)),
            # Maximiser on a level where the other group is empty:
            (TypeII(F(1), 4), TypeIII(F(1, 8), F(6, 7), 1)),
            # Maximisers found by solving g*k = oB +- t - o (mod s) for a class:
            (TypeI(F(7, 2)), TypeI(F(7, 9))),
            (TypeIII(F(2, 3), F(0), 1), TypeIII(F(2), F(5, 7), 1)),
            # One point per level, far from 0: the level loop stops on |x|.
            (TypeII(F(10**10), 1), TypeI(F(1))),
            (TypeII(F(-10**10), 3), TypeI(F(7, 3))),
        ]),
}
