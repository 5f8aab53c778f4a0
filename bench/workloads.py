"""The benchmark's workloads: seeded inputs, the timed operations, their checks.

Inputs come only from ``--seed``.  Costly draws (generator sets, distance
pairs and triples) are taken from fixed pools recorded once in
``reference.json`` with their reference answers and sorted by cost.  A run
keeps the costliest items of each pool and draws one item from each
consecutive stratum of the rest, then applies seeded symmetries that keep
the answer (generator order and signs, the mirror x -> -x).  That makes the
inputs differ from seed to seed while a run's total work stays nearly the
same, so wall time is comparable across seeds.  The kept generator sets
and triples are left as recorded: a symmetry can change an item's cost,
and ``op_tail_s`` is read among them.

An ``Op`` is built before timing starts.  Its ``call`` looks every program
function up on the package module at call time, so a tracer installed
after the ops are built sees the calls.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List, Optional, Tuple

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

IN_PROCESS = ("metric-close", "seeded-sweep", "blowup-wind")
WORKLOADS = ("cli-mix",) + IN_PROCESS
TOL = Fraction(1, 1000)
#: Per-operation cap for the close-lattice headline pairs.  Both take far
#: longer at commit ced6922 (34 s and 208 s uncapped, on a 2-vCPU Xeon), so
#: they are recorded as timeouts and counted at this cap.  It sits above the
#: latency at which ``op_tail_s`` is read, so that the tail is a measured
#: time and not the cap itself.
HEADLINE_CAP_S = 0.5
BALL_RADIUS = Fraction(5)
WIND_GRID = 4096
#: Sampled winding counts at precision 64, k, m <= 6.  With the one at each
#: other precision and the cold layout at 256, eleven operations take over
#: 0.1 s, and ``op_tail_s`` reads the least of them.  With fewer, it read
#: the far tail of the ``denjoy_xi`` latencies, which moved by a tenth from
#: run to run.
WIND_SAMPLES = 8
#: ``denjoy_xi`` queries per precision, and how many of them land in an
#: interval; the rest land in the gaps between intervals.  The two answers
#: take paths of unequal cost, so a fixed mix keeps the latency median from
#: following the draw.  This mix puts the median of the whole list inside
#: the cluster of gap answers at precision 128, not on the edge between
#: two clusters (an even split did, and it moved by a tenth from run to run).
XI_QUERIES = 200
XI_IN_INTERVAL = 50
BLOWUP_PRECISIONS = (64, 128, 256)
SUITE_BUDGETS = {
    "classification": 1,  # its cost is heavy-tailed in the seed
    "metric": 1,
    "charts": 20,
    "convergence": 64,  # the scripted sequences only reach 1/10 at k = 64
    "winding": 1,
    "equivalence": 20,
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right
    cap_s: Optional[float] = None


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


# -- the suites' input distributions, as literal data -------------------------

def random_fraction(rng: random.Random, max_den: int, signed=False) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-max_den if signed else 1, max_den)
    return Fraction(num, den)


def random_subgroup_spec(rng: random.Random, max_den: int = 10) -> list:
    """[family, params...] drawn like the suites' ``random_subgroup``."""
    fam = rng.randrange(6)
    if fam == 0:
        return ["I", str(rng.choice([Fraction(0), random_fraction(rng, max_den)]))]
    if fam == 1:
        return ["I", "inf"]
    if fam == 2:
        return ["II", str(random_fraction(rng, max_den, signed=True)), rng.randint(1, 4)]
    if fam in (3, 4):
        alpha = random_fraction(rng, max_den)
        beta = random_fraction(rng, max_den, signed=True) % 1
        return ["III", str(alpha), str(beta), rng.randint(1, 4)]
    return ["IV", rng.randint(1, 4)]


def random_generators(rng: random.Random, max_den: int = 12) -> List[Tuple[Fraction, int]]:
    """Generator lists drawn like the suites' ``random_generators``."""
    return [
        (Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den)), rng.randint(-3, 3))
        for _ in range(rng.randint(0, 3))
    ]


def spec_literal(spec: list, mirror: bool = False) -> str:
    """Literal text of a subgroup spec; ``mirror`` applies x -> -x."""
    fam = spec[0]
    sign = -1 if mirror else 1
    if fam == "I":
        return f"I(alpha={spec[1]})"
    if fam == "II":
        return f"II(gamma={sign * Fraction(spec[1])},n={spec[2]})"
    if fam == "III":
        return f"III(alpha={spec[1]},beta={sign * Fraction(spec[2])},n={spec[3]})"
    return f"IV(n={spec[1]})"


def gens_literal(gens) -> str:
    return "gen[" + ",".join(f"({x},{m})" for x, m in gens) + "]"


def stratified(pool: list, rng: random.Random, keep_top: int, stratum: int):
    """(drawn, kept): one item drawn per ``stratum`` of the pool but its last
    ``keep_top`` items, and those items.

    ``pool`` is sorted by cost, cheapest first.
    """
    rest, top = pool[: len(pool) - keep_top], pool[len(pool) - keep_top:]
    return [rng.choice(rest[i:i + stratum]) for i in range(0, len(rest), stratum)], top


def totient(b: int) -> int:
    return sum(1 for a in range(b) if gcd(a, b) == 1)


def winding_reference(k: int, m: int) -> int:
    return totient(m // k) if m % k == 0 else 0


# -- in-process workloads ------------------------------------------------------

def build_ops(workload: str, seed: int, crz, ref: dict) -> List[Op]:
    """The operation list of an in-process workload."""
    build = {
        "metric-close": _metric_close_ops,
        "seeded-sweep": _seeded_sweep_ops,
        "blowup-wind": _blowup_ops,
    }[workload]
    return build(seed, crz, ref)


def _distance_op(crz, name: str, left: str, right: str, ref_br, cap_s=None) -> Op:
    H, K = crz.parse_subgroup(left), crz.parse_subgroup(right)
    lo, hi = Fraction(ref_br[0]), Fraction(ref_br[1])
    return Op(
        name,
        lambda: crz.chabauty_distance(H, K, TOL),
        lambda br: checks.check_bracket(br.lo, br.hi, lo, hi, TOL),
        cap_s,
    )


def _mirrored(rng: random.Random, left: list, right: list):
    # Only the mirror: swapping the pair changes which inclusion is tried
    # first, and so the cost, but not the distance.
    mirror = rng.random() < 0.5
    return spec_literal(left, mirror), spec_literal(right, mirror)


def _metric_close_ops(seed: int, crz, ref: dict) -> List[Op]:
    """The fixed close-lattice ladder; the seed only mirrors it."""
    rng = rng_for("metric-close", seed, "ops")
    ops = []
    for row in ref["metric_close"]:
        left, right = _mirrored(rng, row["left"], row["right"])
        cap = HEADLINE_CAP_S if row.get("capped") else None
        ops.append(_distance_op(crz, row["name"], left, right, row["bracket"], cap))
    return ops


def _seeded_sweep_ops(seed: int, crz, ref: dict) -> List[Op]:
    def rng(part):
        return rng_for("seeded-sweep", seed, part)

    ops: List[Op] = []

    r = rng("classify")
    # Sixteen kept sets, so that the ops at op_tail_s's rank are the same
    # for every seed.
    drawn, kept = stratified(ref["gens_pool"], r, keep_top=16, stratum=8)
    for gens in drawn:
        gens = [(Fraction(x), m) if r.random() < 0.5 else (-Fraction(x), -m) for x, m in gens]
        r.shuffle(gens)
        ops.append(_classify_op(crz, gens))
    ops.extend(_classify_op(crz, [(Fraction(x), m) for x, m in gens]) for gens in kept)

    r = rng("pairs")
    drawn, kept = stratified(ref["pair_pool"], r, keep_top=10, stratum=2)
    for row in drawn + kept:
        left, right = _mirrored(r, row["left"], row["right"])
        ops.append(_distance_op(crz, "distance", left, right, row["bracket"]))

    r = rng("triples")
    drawn, kept = stratified(ref["triple_pool"], r, keep_top=4, stratum=2)
    ops.extend(_triangle_op(crz, row, r.random() < 0.5) for row in drawn)
    ops.extend(_triangle_op(crz, row, False) for row in kept)

    r = rng("literals")
    for _ in range(400):
        ops.append(_literal_op(crz, spec_literal(random_subgroup_spec(r), r.random() < 0.5)))
        ops.append(_literal_op(crz, gens_literal(random_generators(r))))

    r = rng("charts")
    for _ in range(400):
        ops.append(_chart_op(crz, crz.parse_subgroup(spec_literal(random_subgroup_spec(r)))))

    r = rng("equivalence")
    for _ in range(400):
        ops.append(_equivalence_op(crz, *_coordinate_pair(crz, r)))

    for name, budget in SUITE_BUDGETS.items():
        ops.append(Op(
            f"suite-{name}",
            lambda name=name, budget=budget: crz.run_suite(name, seed, budget),
            lambda rep: None if rep.passed else "suite reported fail",
        ))
    rng("order").shuffle(ops)
    return ops


def _classify_op(crz, gens) -> Op:
    def call():
        H = crz.classify_from_generators(gens)
        return crz.elements_in_ball(H, BALL_RADIUS), crz.oracle_closure_ball(gens, BALL_RADIUS)

    def check(result):
        got, want = result
        if got.strips:
            return "discrete generators produced a strip"
        if got.points != want.points:
            return f"{len(got.points)} ball points, oracle has {len(want.points)} ({gens})"
        return None

    return Op("classify", call, check)


def _triangle_op(crz, row: dict, mirror: bool) -> Op:
    H, J, K = (crz.parse_subgroup(spec_literal(s, mirror)) for s in row["groups"])
    refs = [tuple(map(Fraction, br)) for br in row["brackets"]]  # HK, HJ, JK

    def call():
        return (
            crz.chabauty_distance(H, K, TOL),
            crz.chabauty_distance(H, J, TOL),
            crz.chabauty_distance(J, K, TOL),
        )

    def check(brs):
        for br, (lo, hi) in zip(brs, refs):
            bad = checks.check_bracket(br.lo, br.hi, lo, hi, TOL)
            if bad:
                return bad
        hk, hj, jk = brs
        if hk.lo > hj.hi + jk.hi + 2 * TOL:
            return f"triangle inequality fails: {hk.lo} > {hj.hi} + {jk.hi} + 2tol"
        return None

    return Op("triangle", call, check)


def _literal_op(crz, text: str) -> Op:
    def call():
        H = crz.parse_subgroup(text)
        canon = crz.format_subgroup(H)
        H2 = crz.parse_subgroup(canon)
        return H, canon, H2, crz.format_subgroup(H2)

    def check(result):
        H, canon, H2, canon2 = result
        if H2 != H or canon2 != canon:
            return f"{text!r} does not round-trip: {canon!r} -> {canon2!r}"
        return None

    return Op("literal", call, check)


def _chart_op(crz, H) -> Op:
    def call():
        back = crz.model_to_subgroup(crz.subgroup_to_model(H))
        if isinstance(H, crz.TypeI):
            return back, crz.chart_psi_I(crz.chart_psi_I_inverse(H))
        if isinstance(H, crz.TypeII):
            return back, crz.chart_psi_II_n(H.n, crz.chart_psi_II_n_inverse(H.n, H))
        return back, crz.chart_psi_III_n(H.n, crz.chart_psi_III_n_inverse(H.n, H))

    def check(result):
        back, chart_back = result
        if back != H or chart_back != H:
            return f"chart round trip of {H!r} gave {back!r}, {chart_back!r}"
        return None

    return Op("chart", call, check)


def _coordinate_pair(crz, rng: random.Random):
    """Leveled coordinates, half of them built to name the same subgroup."""
    def boundary(b):
        a = rng.choice([a for a in range(b) if gcd(a, b) == 1])
        return Fraction(a, b)

    roll = rng.random()
    if roll < 0.4:
        prod = rng.choice([2, 4, 6, 12])
        divisors = [d for d in range(1, prod + 1) if prod % d == 0]
        k1, k2 = rng.choice(divisors), rng.choice(divisors)
        t1 = random_fraction(rng, 6, signed=True)
        return (
            (k1, crz.BoundaryCoord(boundary(prod // k1), t1)),
            (k2, crz.BoundaryCoord(boundary(prod // k2), t1 * k2 / k1)),
        )
    if roll < 0.55:
        alpha = rng.choice([Fraction(0), crz.INF, random_fraction(rng, 6)])
        return (0, crz.AxisCoord(alpha)), (0, crz.AxisCoord(alpha))

    def any_coord():
        if rng.random() < 0.3:
            return (0, crz.AxisCoord(rng.choice([Fraction(0), random_fraction(rng, 6)])))
        t = None if rng.random() < 0.2 else random_fraction(rng, 6, signed=True)
        return (rng.randint(0, 4), crz.BoundaryCoord(boundary(rng.randint(1, 5)), t))

    return any_coord(), any_coord()


def _equivalence_op(crz, a, b) -> Op:
    def call():
        return (
            crz.check_equivalence(a, b),
            crz.subgroup_image(a) == crz.subgroup_image(b),
        )

    def check(result):
        rel, same_image = result
        if rel != same_image:
            return f"{a} ~ {b}: relation {rel} but images equal {same_image}"
        return None

    return Op("equivalence", call, check)


# -- blow-up -------------------------------------------------------------------

class BlowupReference:
    """Independent exact layout of the blown-up circle, from its definition."""

    def __init__(self, max_denominator: int):
        B = max_denominator
        self.B = B
        self.fracs = sorted(
            Fraction(a, b) for b in range(1, B + 1) for a in range(b) if gcd(a, b) == 1
        )
        self.starts = []
        acc = Fraction(0)
        for f in self.fracs:
            self.starts.append(f + acc)
            acc += Fraction(1, f.denominator ** 3)
        self.total = 1 + acc

    def locate(self, u: Fraction):
        """('interval', a/b, lambda), ('irrational',) or ('unresolved',)."""
        pos = u * self.total
        lo, hi = 0, len(self.starts)
        while hi - lo > 1:  # last start <= pos; starts[0] = 0
            mid = (lo + hi) // 2
            if self.starts[mid] <= pos:
                lo = mid
            else:
                hi = mid
        start, f = self.starts[lo], self.fracs[lo]
        width = Fraction(1, f.denominator ** 3)
        guard = width / self.B ** 2
        if pos <= start + width:
            return ("interval", f, (pos - start) / width)
        if pos - (start + width) < guard:
            return ("unresolved",)
        if lo + 1 < len(self.starts) and self.starts[lo + 1] - pos < guard:
            return ("unresolved",)
        return ("irrational",)


def _blowup_ops(seed: int, crz, ref: dict) -> List[Op]:
    """Cold layouts, sampled winding counts and ``denjoy_xi`` queries, in a
    fixed order: the first call at each precision builds its layout cold."""
    rng = rng_for("blowup-wind", seed, "ops")
    ops: List[Op] = []
    refs = {}

    def reference(B):
        if B not in refs:
            refs[B] = BlowupReference(B)
        return refs[B]

    def layout_op(B):
        def check(total):
            return checks.check_exact(total, reference(B).total)
        return Op(f"layout-{B}", lambda: crz.blowup_total_length(B), check)

    def wind_op(k, m, B):
        want = winding_reference(k, m)
        return Op(
            f"wind-{B}",
            lambda: crz.winding_count_sampled(k, m, WIND_GRID, B),
            lambda got: checks.check_exact(got, want),
        )

    def xi_op(u, B):
        def check(coord):
            return checks.check_exact(_xi_tuple(crz, coord), reference(B).locate(u))
        return Op(f"xi-{B}", lambda: crz.denjoy_xi(u, B), check)

    pairs = [(k, m) for k in range(1, 7) for m in range(1, 7)]
    chosen = iter(rng.sample(pairs, WIND_SAMPLES + 2))
    for B in BLOWUP_PRECISIONS:
        ops.append(layout_op(B))
        ops.extend(wind_op(*next(chosen), B) for _ in range(WIND_SAMPLES if B == 64 else 1))
        wanted = {True: XI_IN_INTERVAL, False: XI_QUERIES - XI_IN_INTERVAL}
        while any(wanted.values()):
            den = rng.getrandbits(48) | (1 << 47)
            u = Fraction(rng.randrange(den), den)
            in_interval = reference(B).locate(u)[0] == "interval"
            if wanted[in_interval]:
                wanted[in_interval] -= 1
                ops.append(xi_op(u, B))
    return ops


def _xi_tuple(crz, coord):
    if isinstance(coord, crz.Interval):
        return ("interval", coord.rational, coord.lam)
    if isinstance(coord, crz.Unresolved):
        return ("unresolved",)
    return ("irrational",)


# -- cli-mix -------------------------------------------------------------------

#: Commands per group in a round, so that a round has more than twenty
#: commands and its latency tail lies above its median.
CLI_PER_GROUP = 2


def cli_round(seed: int, ref: dict, out_dir: str) -> List[Tuple[List[str], dict]]:
    """One round of CLI commands: every subcommand, variants drawn by seed."""
    rng = rng_for("cli-mix", seed, "round")
    round_cmds = []
    for group in ref["cli"]:
        cases = group["cases"]
        picked = rng.sample(cases, min(len(cases), CLI_PER_GROUP))
        picked += rng.choices(cases, k=CLI_PER_GROUP - len(picked))
        round_cmds.extend(_cli_command(case, seed, out_dir) for case in picked)
    rng.shuffle(round_cmds)
    return round_cmds


def _cli_command(case: dict, seed: int, out_dir: str):
    argv = [a.replace("{seed}", str(seed)).replace("{out}", out_dir) for a in case["argv"]]
    expect = dict(case["expect"])
    for key in ("stdout", "file"):
        if key in expect:
            expect[key] = expect[key].replace("{out}", out_dir)
    return argv, expect


def write_cli_inputs(ref: dict, out_dir: str) -> None:
    """Files the CLI commands read, such as the ``limit`` sequence."""
    os.makedirs(out_dir, exist_ok=True)
    for name, lines in ref["cli_files"].items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
