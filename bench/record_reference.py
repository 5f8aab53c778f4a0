"""Record the benchmark's reference answers and input pools.

Run once, from the repository root, on the code the benchmark was defined
against:

    PYTHONPATH=src python3 bench/record_reference.py

It writes ``bench/reference.json``.  Later versions of the program are
checked against this file, so it is not re-recorded when the program
changes.  The two close-lattice headline pairs are computed uncapped like
every other pair, so a run takes minutes; their brackets hold the exact
values 1/42 and 1/2002.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
import time

import chabauty_rz as crz

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = "reference-pools"

LADDER = [
    ("I-10", ["I", "10"], ["I", "11"]),
    ("I-20", ["I", "20"], ["I", "21"]),
    ("I-40", ["I", "40"], ["I", "41"]),
    ("III-2", ["III", "2", "0", 1], ["III", "3", "0", 1]),
    ("III-4", ["III", "4", "0", 1], ["III", "5", "0", 1]),
    ("III-sheared", ["III", "4", "1/3", 1], ["III", "5", "2/5", 1]),
    ("strip-Iinf-IV1", ["I", "inf"], ["IV", 1]),
    ("strip-Iinf-I5", ["I", "inf"], ["I", "5"]),
    ("strip-Iinf-III10", ["I", "inf"], ["III", "10", "0", 1]),
    ("strip-IV1-III5", ["IV", 1], ["III", "5", "0", 1]),
    ("strip-IV2-III3", ["IV", 2], ["III", "3", "1/2", 1]),
    ("I-5", ["I", "5"], ["I", "6"]),
    ("I-15", ["I", "15"], ["I", "16"]),
    ("III-3", ["III", "3", "0", 1], ["III", "4", "0", 1]),
    ("III-3-level2", ["III", "3", "0", 2], ["III", "4", "0", 2]),
    ("III-sheared-2", ["III", "2", "1/2", 1], ["III", "3", "1/3", 1]),
    ("III-sheared-5", ["III", "5", "1/5", 1], ["III", "6", "1/6", 1]),
    ("II-10", ["II", "1/10", 1], ["II", "1/11", 1]),
    ("strip-IV1-IV2", ["IV", 1], ["IV", 2]),
    ("strip-Iinf-II", ["I", "inf"], ["II", "1/2", 1]),
    ("strip-IV3-III2", ["IV", 3], ["III", "2", "1/3", 3]),
]
HEADLINE = [
    ("III-20-headline", ["III", "20", "0", 1], ["III", "21", "0", 1]),
    ("I-1000-headline", ["I", "1000"], ["I", "1001"]),
]

CLI_FILES = {"seq.txt": [f"III(alpha=1,beta=1/2,n={k})" for k in (16, 32, 64, 128)]}
CLI_GROUPS = [
    ("classify-literal", [["classify", t] for t in (
        "III(alpha=2,beta=1/3,n=1)", "III(alpha=5/2,beta=7/3,n=-3)",
        "II(gamma=-3/4,n=2)", "I(alpha=inf)", "IV(n=3)")]),
    ("classify-gen", [["classify", t] for t in (
        "gen[(1/2,0),(1/3,1)]", "gen[(2/3,1),(5/6,2)]", "gen[(1/2,0),(1/3,0)]",
        "gen[(3/4,-1)]", "gen[(1,0),(0,1),(1/5,2)]")]),
    ("model", [["model", t] for t in (
        "III(alpha=2,beta=1/3,n=1)", "II(gamma=5/2,n=3)", "I(alpha=3)",
        "IV(n=2)", "I(alpha=0)")]),
    ("dist-lattice", [["dist", "I(alpha=1)", "I(alpha=2)"], ["dist", "I(alpha=2)", "I(alpha=1)"]]),
    ("dist-strip", [["dist", "I(alpha=inf)", "IV(n=1)"], ["dist", "IV(n=1)", "I(alpha=inf)"]]),
    ("limit", [["limit", "--seq", "{out}/seq.txt", "--limit", "I(alpha=1)",
                "--tol", "1/20", "--tail", "2"]]),
    ("wind", [["wind", "--cone", str(k), "--circle", str(m)]
              for k, m in ((2, 4), (3, 12), (1, 5), (2, 3), (4, 8))]),
    ("wind-sampled", [["wind", "--cone", str(k), "--circle", str(m), "--sampled"]
                      for k, m in ((2, 4), (1, 6), (3, 6), (2, 5), (1, 1))]),
    ("verify-winding", [["verify", "--suite", "winding", "--seed", "{seed}"]]),
    ("verify-equivalence", [["verify", "--suite", "equivalence", "--seed", "{seed}", "--budget", "20"]]),
    ("verify-charts", [["verify", "--suite", "charts", "--seed", "{seed}", "--budget", "20"]]),
    ("plot", [["plot", "--out", "{out}/model.svg"]]),
]


def _bracket(br):
    return [str(br.lo), str(br.hi)]


def _distance(left, right):
    return crz.chabauty_distance(
        crz.parse_subgroup(wl.spec_literal(left)), crz.parse_subgroup(wl.spec_literal(right)), wl.TOL
    )


def _timed(fn):
    """The result and the least of three timings, for sorting by cost."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def record_metric_close():
    rows = [{"name": n, "left": a, "right": b, "bracket": _bracket(_distance(a, b))} for n, a, b in LADDER]
    for name, a, b in HEADLINE:
        rows.append({"name": name, "left": a, "right": b, "bracket": _bracket(_distance(a, b)),
                     "capped": True})
    return rows


def record_gens_pool(rng, size):
    """Generator sets sorted by the size of their ball, which sets their cost."""
    rows = []
    for i in range(size):
        gens = wl.random_generators(rng)
        points = len(crz.oracle_closure_ball(gens, wl.BALL_RADIUS).points)
        rows.append((points, i, [[str(x), m] for x, m in gens]))
    rows.sort()
    return [g for _, _, g in rows]


def record_pair_pool(rng, size):
    rows = []
    for _ in range(size):
        a, b = wl.random_subgroup_spec(rng), wl.random_subgroup_spec(rng)
        br, cost = _timed(lambda: _distance(a, b))
        rows.append((cost, {"left": a, "right": b, "bracket": _bracket(br)}))
    rows.sort(key=lambda r: r[0])
    return [r for _, r in rows]


def record_triple_pool(rng, size):
    rows = []
    for _ in range(size):
        H, J, K = (wl.random_subgroup_spec(rng) for _ in range(3))
        brs, cost = _timed(lambda: [_bracket(_distance(H, K)), _bracket(_distance(H, J)),
                                    _bracket(_distance(J, K))])
        rows.append((cost, {"groups": [H, J, K], "brackets": brs}))
    rows.sort(key=lambda r: r[0])
    return [r for _, r in rows]


def _expect(argv, rc, stdout, out_dir):
    if argv[0] == "verify":
        return {"rc": rc, "suite": argv[argv.index("--suite") + 1]}
    if argv[0] in ("dist", "limit"):
        tol = argv[argv.index("--tol") + 1] if "--tol" in argv else "1/1000"
        exp = {"rc": rc, "brackets": [[str(lo), str(hi)] for lo, hi in checks.parse_brackets(stdout)], "tol": tol}
        if argv[0] == "limit":
            exp["last_line"] = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        return exp
    exp = {"rc": rc, "stdout": stdout.replace(out_dir, "{out}")}
    if argv[0] == "plot":
        exp["file"] = argv[-1]
    return exp


def record_cli():
    groups = []
    with tempfile.TemporaryDirectory() as out_dir:
        wl.write_cli_inputs({"cli_files": CLI_FILES}, out_dir)
        for name, cases in CLI_GROUPS:
            recorded = []
            for argv in cases:
                concrete = [a.replace("{out}", out_dir).replace("{seed}", "0") for a in argv]
                buf = io.StringIO()
                rc = crz.run_cli(concrete, out=buf)
                if rc != 0:
                    raise SystemExit(f"reference command failed: {concrete} -> {rc}")
                recorded.append({"argv": argv, "expect": _expect(argv, rc, buf.getvalue(), out_dir)})
            groups.append({"name": name, "cases": recorded})
    return groups


def main():
    rng = random.Random(POOL_SEED)
    ref = {
        "about": ("Reference answers recorded at commit ced6922 by bench/record_reference.py; "
                  "every bracket, the capped headline pairs included, comes from an uncapped run."),
        "metric_close": record_metric_close(),
        "gens_pool": record_gens_pool(rng, 600),
        "pair_pool": record_pair_pool(rng, 400),
        "triple_pool": record_triple_pool(rng, 60),
        "cli": record_cli(),
        "cli_files": CLI_FILES,
    }
    write_reference(ref, wl.REFERENCE_PATH)


def write_reference(ref: dict, path: str) -> None:
    """JSON with one list item per line, so that diffs stay readable."""
    parts = []
    for key, value in ref.items():
        if isinstance(value, list):
            body = "[\n " + ",\n ".join(json.dumps(v) for v in value) + "\n]"
        else:
            body = json.dumps(value)
        parts.append(f"{json.dumps(key)}: {body}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    main()
