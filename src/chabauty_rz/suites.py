"""Seeded verification suites over the classifier, metric, charts and gluing.

Each suite is deterministic for a fixed seed and returns a report whose
cases carry the numeric evidence that produced the verdict.  Reports
serialize to a line-oriented text form and to JSON with the schema
{suite, seed, pass, cases: [{id, pass, detail}]}; several reports make one
document {pass, suites: [...]}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Tuple

from .rationals import INF, Record, as_int, fmt_q
from .subgroups import (
    ClosedSubgroup,
    InvalidParameter,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    classify_from_generators,
    elements_in_ball,
    eta_cyclic,
)
from .metric import chabauty_distance, hausdorff_inclusion_ok
from .earring import (
    ConePoint,
    OnCircle,
    chart_psi_I,
    chart_psi_I_inverse,
    chart_psi_II_n,
    chart_psi_II_n_inverse,
    chart_psi_III_n,
    chart_psi_III_n_inverse,
    model_to_subgroup,
    subgroup_to_model,
    winding_count,
)
from .denjoy import Interval, blowup_interval_start, blowup_total_length, denjoy_xi
from .equivalence import AxisCoord, BoundaryCoord, check_equivalence, subgroup_image
from .literals import format_subgroup
from .oracle import oracle_closure_ball, totient

if TYPE_CHECKING:  # the annotations only; run_suite loads random
    import random


class UnknownSuite(InvalidParameter):
    pass


class CaseResult(Record):
    __slots__ = ("id", "passed", "detail")


class SuiteReport(Record):
    __slots__ = ("suite", "seed", "cases")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_text(self) -> str:
        lines = [f"suite {self.suite} seed {self.seed}"]
        for c in self.cases:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"{mark} {c.id}: {c.detail}")
        lines.append(f"result {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "pass": self.passed,
            "cases": [
                {"id": c.id, "pass": c.passed, "detail": c.detail}
                for c in self.cases
            ],
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict())


def reports_to_json(reports) -> str:
    """The JSON document of several reports, as ``verify --suite all --json``
    prints it: {pass, suites: [each report's document]}."""
    return _dumps({"pass": all(r.passed for r in reports),
                   "suites": [r.to_dict() for r in reports]})


def _dumps(doc) -> str:
    import json  # loaded on the first report written, not on import

    return json.dumps(doc, indent=2)


# -- random sampling ---------------------------------------------------------

def random_fraction(rng: random.Random, max_den: int, signed=False) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-max_den if signed else 1, max_den)
    return Fraction(num, den)


def random_subgroup(rng: random.Random, max_den: int = 10) -> ClosedSubgroup:
    fam = rng.randrange(6)
    if fam == 0:
        return TypeI(rng.choice([Fraction(0), random_fraction(rng, max_den)]))
    if fam == 1:
        return TypeI(INF)
    if fam == 2:
        return TypeII(random_fraction(rng, max_den, signed=True), rng.randint(1, 4))
    if fam in (3, 4):
        return TypeIII(
            random_fraction(rng, max_den),
            random_fraction(rng, max_den, signed=True) % 1,
            rng.randint(1, 4),
        )
    return TypeIV(rng.randint(1, 4))


def random_generators(rng: random.Random, max_den: int = 12) -> List[Tuple]:
    count = rng.randint(0, 3)
    gens = []
    for _ in range(count):
        x = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
        lvl = rng.randint(-3, 3)
        gens.append((x, lvl))
    return gens


# -- individual suites -------------------------------------------------------

def _suite_classification(rng: random.Random, budget: int) -> List[CaseResult]:
    cases = []
    radius = Fraction(5)
    for i in range(budget):
        gens = random_generators(rng)
        H = classify_from_generators(gens)
        got = elements_in_ball(H, radius)
        want = oracle_closure_ball(gens, radius)
        ok = got.points == want.points and not got.strips
        cases.append(
            CaseResult(
                f"classify-{i:03d}",
                ok,
                f"gens={gens} -> {format_subgroup(H)}; "
                f"{len(got.points)} ball points vs oracle {len(want.points)}",
            )
        )
    return cases


def _suite_metric(rng: random.Random, budget: int) -> List[CaseResult]:
    tol = Fraction(1, 1000)
    cases = []
    for i in range(budget):
        H, K, J = (random_subgroup(rng) for _ in range(3))

        ab = chabauty_distance(H, K, tol)
        ba = chabauty_distance(K, H, tol)
        cases.append(
            CaseResult(f"symmetry-{i:03d}", ab == ba, f"{ab} vs {ba}")
        )

        hj = chabauty_distance(H, J, tol)
        jk = chabauty_distance(J, K, tol)
        tri = ab.lo <= hj.hi + jk.hi
        cases.append(
            CaseResult(
                f"triangle-{i:03d}",
                tri,
                f"lo={ab.lo} <= {hj.hi}+{jk.hi}",
            )
        )

        zero = chabauty_distance(H, H, tol)
        cases.append(
            CaseResult(
                f"zero-iff-equal-{i:03d}",
                zero == (0, 0) and (H == K) == (ab == (0, 0)),
                f"d(H,H)={zero}, d(H,K)={ab}, equal={H == K}",
            )
        )

        eps = Fraction(rng.randint(1, 8), rng.randint(4, 12))
        chain_ok, prev = True, None
        for step in range(8):
            cur = hausdorff_inclusion_ok(H, K, eps * (step + 1))
            if prev is True and cur is False:
                chain_ok = False
            prev = cur
        cases.append(
            CaseResult(f"monotone-{i:03d}", chain_ok, f"eps chain start {eps}")
        )

        # The kernel against its oracle: the inclusion predicate breaks
        # at eps = d and holds on both sides at every eps > d.
        d = ab.lo
        if d > 0:
            at_d = hausdorff_inclusion_ok(H, K, d) and hausdorff_inclusion_ok(K, H, d)
            above = d * Fraction(1001, 1000)
            holds = hausdorff_inclusion_ok(H, K, above) and hausdorff_inclusion_ok(K, H, above)
            cases.append(
                CaseResult(
                    f"oracle-{i:03d}",
                    not at_d and holds,
                    f"d={d}: both sides hold at d: {at_d}, at 1001d/1000: {holds}",
                )
            )
    return cases


def _suite_charts(rng: random.Random, budget: int) -> List[CaseResult]:
    cases = []
    for i in range(budget):
        H = random_subgroup(rng)
        ok = model_to_subgroup(subgroup_to_model(H)) == H
        cases.append(
            CaseResult(f"model-roundtrip-{i:03d}", ok, format_subgroup(H))
        )

    for i in range(budget):
        n = rng.randint(1, 5)
        c = ConePoint(
            n,
            rng.choice([INF, random_fraction(rng, 9)]),
            Fraction(0) if rng.random() < 0.2 else random_fraction(rng, 9) % 1,
        )
        H = chart_psi_III_n(n, c)
        ok = chart_psi_III_n_inverse(n, H) == c and (
            isinstance(H, TypeIV) or H.n == n
        )
        cases.append(CaseResult(f"cone-roundtrip-{i:03d}", ok, f"{c} -> {format_subgroup(H)}"))

        p = OnCircle(rng.randint(1, 6), random_fraction(rng, 9, signed=True))
        H2 = chart_psi_II_n(n, p)
        ok2 = (
            chart_psi_II_n_inverse(n, H2) == p
            and isinstance(H2, TypeII)
            and H2.n % n == 0
        )
        cases.append(
            CaseResult(f"earring-roundtrip-{i:03d}", ok2, f"{p} -> {format_subgroup(H2)}")
        )

        alpha = rng.choice([Fraction(0), INF, random_fraction(rng, 9)])
        ok3 = chart_psi_I_inverse(chart_psi_I(alpha)) == alpha
        cases.append(CaseResult(f"axis-roundtrip-{i:03d}", ok3, fmt_q(alpha)))

    # Blow-up layout sanity: totals increase in B, and each sample that
    # lands in an interval sits at its arc position u * L_B, in u's order.
    totals = [blowup_total_length(B) for B in (2, 4, 8, 16, 32)]
    inc = all(a < b for a, b in zip(totals, totals[1:]))
    bounded = all(
        totals[j] + Fraction(1, B) > totals[-1]
        for j, B in enumerate((2, 4, 8, 16, 32))
    )
    cases.append(
        CaseResult(
            "blowup-totals",
            inc and bounded,
            f"L_B for B=2..32: {[str(t) for t in totals]}",
        )
    )

    us = sorted(Fraction(rng.randint(0, 2**20 - 1), 2**20) for _ in range(24))
    total = blowup_total_length(16)
    hits = []  # (u, the position read back from u's interval coordinate)
    for u in us:
        c = denjoy_xi(u, 16)
        if isinstance(c, Interval):
            b = c.rational.denominator
            hits.append((u, blowup_interval_start(c.rational, 16) + c.lam / b**3))
    exact = all(x == u * total for u, x in hits)
    ordered = all(x < y for (u, x), (v, y) in zip(hits, hits[1:]) if u != v)
    detail = f"{len(hits)} of {len(us)} samples in an interval, each at u * L_16 in u's order"
    cases.append(CaseResult("blowup-monotone", exact and ordered, detail))
    return cases


def fibonacci_ratio(k: int) -> Fraction:
    """Largest-denominator golden-ratio convergent F_i/F_{i+1} with F_{i+1} <= max(k, 2)."""
    a, b, m = 1, 2, max(k, 2)
    while a + b <= m:
        a, b = b, a + b
    return Fraction(a, b)


#: Scripted sequences H_k -> limit exercising the continuity proofs of the
#: chart maps: rational-angle boundary approach, vertical (diverging-angle)
#: approach, the cone apex, the earring basepoint, level escape, and cyclic
#: groups with growing level.  The parameter rates were calibrated once so
#: the k = 64 distance sits below 1/10 (see the distances in the reports);
#: the originally scripted rates 1/k for (a) and (b) converge like 1/sqrt(k)
#: and only cross 1/10 beyond k = 100.
CONVERGENCE_SCRIPTS: List[Tuple[str, Callable[[int], ClosedSubgroup], ClosedSubgroup]] = [
    ("a-rational-angle", lambda k: TypeIII(Fraction(1, k), (Fraction(1, 2) + Fraction(1, k**3)) % 1, 1), TypeII(Fraction(0), 2)),
    ("b-vertical", lambda k: TypeIII(Fraction(1, k**2), fibonacci_ratio(k), 1), TypeI(Fraction(0))),
    ("c-apex", lambda k: TypeIII(Fraction(k), Fraction(0), 1), TypeIV(1)),
    ("d-basepoint", lambda k: TypeII(Fraction(k), 1), TypeI(Fraction(0))),
    ("e-level-escape", lambda k: TypeIII(Fraction(1), Fraction(1, 2), k), TypeI(Fraction(1))),
    ("f-cyclic-growing-level", lambda k: TypeII(Fraction(3, 2), k), TypeI(Fraction(0))),
]

CONVERGENCE_TOL = Fraction(1, 100)   # distance bracket tolerance
CONVERGENCE_PASS = Fraction(1, 10)   # required bracket hi at the final k


def _suite_convergence(rng: random.Random, budget: int) -> List[CaseResult]:
    ks = (4, 8, 16, 32, 64)
    cases = []
    for name, seq, limit in CONVERGENCE_SCRIPTS:
        brackets = [chabauty_distance(seq(k), limit, CONVERGENCE_TOL) for k in ks]
        final_ok = brackets[-1].hi <= CONVERGENCE_PASS
        detail = ", ".join(f"k={k}: hi={br.hi}" for k, br in zip(ks, brackets))
        cases.append(CaseResult(f"conv-{name}", final_ok, detail))
    return cases


def _suite_winding(rng: random.Random, budget: int) -> List[CaseResult]:
    cases = []
    for k in range(1, 13):
        for m in range(1, 13):
            got = winding_count(k, m)
            want = totient(m // k) if m % k == 0 else 0
            cases.append(
                CaseResult(
                    f"wind-{k:02d}-{m:02d}",
                    got == want,
                    f"count={got}, totient oracle={want}",
                )
            )
    return cases


def _random_coordinate_pair(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        # constructed positive case: same product k*b, transported slope
        prod = rng.choice([2, 4, 6, 12])
        divisors = [d for d in range(1, prod + 1) if prod % d == 0]
        k1, k2 = rng.choice(divisors), rng.choice(divisors)
        b1, b2 = prod // k1, prod // k2
        t1 = random_fraction(rng, 6, signed=True)
        t2 = t1 * k2 / k1
        a1 = rng.choice([a for a in range(b1) if Fraction(a, b1).denominator == b1])
        a2 = rng.choice([a for a in range(b2) if Fraction(a, b2).denominator == b2])
        return (
            (k1, BoundaryCoord(Fraction(a1, b1), t1)),
            (k2, BoundaryCoord(Fraction(a2, b2), t2)),
        )
    if roll < 0.55:
        alpha = rng.choice([Fraction(0), INF, random_fraction(rng, 6)])
        return ((0, AxisCoord(alpha)), (0, AxisCoord(alpha)))
    if roll < 0.7:
        mk = lambda: (
            rng.randint(0, 3),
            BoundaryCoord(None, None)
            if rng.random() < 0.5
            else BoundaryCoord(random_fraction(rng, 5) % 1, None),
        )
        return (mk(), mk())

    def any_coord():
        if rng.random() < 0.3:
            return (0, AxisCoord(rng.choice([Fraction(0), random_fraction(rng, 6)])))
        b = rng.randint(1, 5)
        a = rng.choice([a for a in range(b) if Fraction(a, b).denominator == b])
        t = None if rng.random() < 0.2 else random_fraction(rng, 6, signed=True)
        return (rng.randint(0, 4), BoundaryCoord(Fraction(a, b), t))

    return (any_coord(), any_coord())


def _suite_equivalence(rng: random.Random, budget: int) -> List[CaseResult]:
    cases = []
    for i in range(budget):
        a, b = _random_coordinate_pair(rng)
        rel = check_equivalence(a, b)
        img = subgroup_image(a) == subgroup_image(b)
        cases.append(
            CaseResult(
                f"equiv-{i:03d}",
                rel == img,
                f"{a} ~ {b}: relation={rel}, images equal={img}",
            )
        )

    for i in range(budget):
        x = random_fraction(rng, 9, signed=True)
        n = rng.randint(-4, 4)
        if x == 0 and n == 0:
            n = 1
        g1, H1 = eta_cyclic(x, n)
        g2, H2 = eta_cyclic(-x, -n)
        ok = g1 == g2 and H1 == H2 and H1 == classify_from_generators([(-x, -n)])
        cases.append(
            CaseResult(f"involution-{i:03d}", ok, f"({x},{n}) -> {g1}, {format_subgroup(H1)}")
        )
    return cases


_SUITES = {
    "classification": _suite_classification,
    "metric": _suite_metric,
    "charts": _suite_charts,
    "convergence": _suite_convergence,
    "winding": _suite_winding,
    "equivalence": _suite_equivalence,
}
SUITE_NAMES = tuple(_SUITES)

#: Largest budget accepted by `run_suite`; suite work grows linearly with it.
MAX_BUDGET = 10_000


def run_suite(name: str, seed: int, budget: int) -> SuiteReport:
    """Run one named suite deterministically under the given seed."""
    if name not in SUITE_NAMES:  # by ==, so an unhashable name is refused too
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    seed, budget = as_int(seed, "seed"), as_int(budget, "budget")
    if budget <= 0:
        raise InvalidParameter("budget must be positive")
    if budget > MAX_BUDGET:
        raise InvalidParameter(f"budget must be <= {MAX_BUDGET}")
    import random  # loaded on the first suite run, not on import

    rng = random.Random(seed)
    cases = _SUITES[name](rng, budget)
    return SuiteReport(name, seed, tuple(cases))
