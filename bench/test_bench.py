"""The benchmark's own tests: checkers, metric names, and a tiny smoke run of
each workload.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import chabauty_rz as crz  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

REF = wl.load_reference()
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


# -- checkers ------------------------------------------------------------------

def test_bracket_check_accepts_narrower_and_exact_answers():
    ref_lo, ref_hi = Fraction(3, 128), Fraction(25, 1024)
    assert checks.check_bracket(ref_lo, ref_hi, ref_lo, ref_hi, wl.TOL) is None
    exact = Fraction(1, 42)
    assert checks.check_bracket(exact, exact, ref_lo, ref_hi, wl.TOL) is None


def test_bracket_check_rejects_wrong_brackets():
    ref_lo, ref_hi = Fraction(3, 128), Fraction(25, 1024)
    assert checks.check_bracket(Fraction(1, 10), Fraction(1, 10), ref_lo, ref_hi, wl.TOL)
    assert checks.check_bracket(Fraction(0), Fraction(1, 10), ref_lo, ref_hi, wl.TOL)  # too wide
    assert checks.check_bracket(Fraction(1, 20), Fraction(1, 30), ref_lo, ref_hi, wl.TOL)  # empty


def test_cli_check_rejects_wrong_canonical_form_and_exit_code():
    expect = {"rc": 0, "stdout": "III(alpha=2,beta=1/3,n=1)\n"}
    assert checks.check_cli(0, "III(alpha=2,beta=1/3,n=1)\n", expect) is None
    assert checks.check_cli(0, "III(alpha=2,beta=4/3,n=1)\n", expect)
    assert checks.check_cli(1, "III(alpha=2,beta=1/3,n=1)\n", expect)
    assert checks.check_cli(2, "", {"rc": 0, "suite": "winding"})


def test_cli_check_reads_distance_brackets():
    expect = {"rc": 0, "brackets": [["1/2", "513/1024"]], "tol": "1/1000"}
    assert checks.check_cli(0, "[1/2,1/2]\n", expect) is None
    assert checks.check_cli(0, "[3/4,3/4]\n", expect)


# -- metric names ----------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_the_output():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in end_to_end + per_layer)
    assert set(end_to_end) == set(run.END_TO_END)
    reported = set(tracer.layer_metrics([])) | {
        "import.total_s", "import.third_party_s", "trace.overhead_frac"}
    assert set(per_layer) == reported
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


# -- smoke runs --------------------------------------------------------------------

def _run_ops(ops):
    outcomes = [worker.run_op(op) for op in ops]
    assert all(o[1] == "ok" for o in outcomes), [o for o in outcomes if o[1] != "ok"]


def test_metric_close_ladder_smoke():
    ops = wl.build_ops("metric-close", 0, crz, REF)
    assert [op.name for op in ops] == [r["name"] for r in REF["metric_close"]]
    _run_ops([op for op in ops if op.name.startswith("strip") or op.name in ("I-10", "III-2")])


def test_capped_operation_times_out_at_its_cap():
    worker.signal.signal(worker.signal.SIGALRM, worker._on_alarm)
    op = next(op for op in wl.build_ops("metric-close", 0, crz, REF) if op.name == "I-1000-headline")
    op.cap_s = 0.2
    latency, outcome, _ = worker.run_op(op)
    assert (latency, outcome) == (0.2, "timeout")


def test_seeded_sweep_smoke():
    ops = wl.build_ops("seeded-sweep", 3, crz, REF)
    assert len(ops) > 1000
    cheap = [op for op in ops if op.name in ("literal", "chart", "equivalence")][:60]
    _run_ops(cheap + [op for op in ops if op.name == "suite-winding"])


def test_seeded_sweep_inputs_follow_the_seed():
    def names(seed):
        return [op.name for op in wl.build_ops("seeded-sweep", seed, crz, REF)]

    assert names(5) == names(5)
    assert names(5) != names(6)


def test_blowup_wind_smoke():
    blowup = wl.build_ops("blowup-wind", 0, crz, REF)
    assert [op.name for op in blowup if op.name.startswith("layout")] == [
        "layout-64", "layout-128", "layout-256"]
    small = [op for op in blowup if op.name in ("layout-64", "xi-64")][:50]
    _run_ops(small + [next(op for op in blowup if op.name == "wind-64")])


def test_blowup_xi_queries_split_between_intervals_and_gaps():
    blowup = wl.build_ops("blowup-wind", 0, crz, REF)
    for B in wl.BLOWUP_PRECISIONS:
        answers = [op.call() for op in blowup if op.name == f"xi-{B}"]
        assert len(answers) == wl.XI_QUERIES
        assert sum(isinstance(a, crz.Interval) for a in answers) == wl.XI_IN_INTERVAL


def test_cli_round_matches_its_references(tmp_path):
    wl.write_cli_inputs(REF, str(tmp_path))
    commands = wl.cli_round(0, REF, str(tmp_path))
    assert len(commands) == wl.CLI_PER_GROUP * len(REF["cli"])
    assert {argv[0] for argv, _ in commands} == {
        "classify", "model", "dist", "limit", "wind", "verify", "plot"}
    for argv, expect in commands:
        out = io.StringIO()
        rc = crz.run_cli(argv, out=out)
        assert checks.check_cli(rc, out.getvalue(), expect) is None, argv


def test_layer_metrics_self_time_and_shortcut_ratio():
    # distance [0, 10] > inclusion [1, 5] > ball [2, 4]; a second inclusion with no ball
    spans = [
        (0, None, 0, "metric.distance", 0.0, 10.0, 0),
        (1, 0, 0, "metric.inclusion", 1.0, 5.0, 0),
        (2, 1, 0, "subgroups.ball", 2.0, 4.0, 7),
        (3, 0, 0, "metric.inclusion", 6.0, 7.0, 0),
    ]
    m = tracer.layer_metrics(spans)
    assert m["metric.distance_s"] == 5.0
    assert m["metric.inclusion_s"] == 3.0
    assert m["subgroups.ball_s"] == 2.0
    assert m["metric.subset_shortcut_frac"] == 0.5
    assert m["metric.ball_points_per_distance"] == 7.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
