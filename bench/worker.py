"""One fresh process of the benchmark: a pass of an in-process workload, or
one CLI command of ``cli-mix`` in a traced run.

    python3 bench/worker.py pass --workload W --seed S --trace 0|1 --result FILE --spans FILE
    python3 bench/worker.py cli --trace 0|1 --result FILE -- <chabauty-rz arguments>

``run.py`` starts it with ``PYTHONPATH=src`` and reads the JSON it writes
to FILE.  A fresh process per pass means every pass starts with cold
caches, as a user's process does, and import time stays out of the pass.
In a traced run of ``cli-mix`` both the traced and the untraced commands
go through this worker, so that ``trace.overhead_frac`` compares like
with like.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import sys
import time

import chabauty_rz as crz

import speed
import tracer as tr
import workloads as wl

#: Operations run between two calibrations for at most about this long.
SEGMENT_S = 0.05


class OpTimeout(BaseException):
    """Raised into a capped operation when its cap expires.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op: wl.Op):
    """Time one operation; returns (latency_s, outcome, detail)."""
    if op.cap_s is not None:
        signal.setitimer(signal.ITIMER_REAL, op.cap_s)
    t0 = time.perf_counter()
    try:
        result = op.call()
        latency = time.perf_counter() - t0
    except OpTimeout:
        return op.cap_s, "timeout", f"exceeded its {op.cap_s} s cap"
    except Exception as exc:  # a failing operation is recorded, not fatal
        return time.perf_counter() - t0, "error", f"{type(exc).__name__}: {exc}"
    finally:
        if op.cap_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        bad = op.check(result)
    except Exception as exc:
        bad = f"checker raised {type(exc).__name__}: {exc}"
    return latency, ("wrong" if bad else "ok"), bad


def run_pass(workload: str, seed: int, trace: bool, spans_path: str) -> dict:
    """Run the workload's list once.  Each row is (name, latency in reference
    seconds, outcome, detail, measured seconds); a capped operation that
    timed out counts at its cap."""
    ops = wl.build_ops(workload, seed, crz, wl.load_reference())
    tracer = tr.Tracer() if trace else None
    if tracer:
        tr.install(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    rows, segments, kernel = [], [], [speed.measure()]
    # Keep what exists before the pass (the sympy/numpy import, the
    # reference, the built ops) out of the collector's way.  Otherwise each
    # full collection walks it, about 20 ms at a random point of whichever
    # operation set it off; that was most of the spread of the costly
    # operations.  Collections of what the operations allocate still count.
    gc.collect()
    gc.freeze()
    calibrated = time.perf_counter()
    max_rss_kb = None
    for i, op in enumerate(ops):
        if time.perf_counter() - calibrated > SEGMENT_S:
            kernel.append(speed.measure())
            calibrated = time.perf_counter()
        segments.append(len(kernel) - 1)
        if tracer:
            tracer.op_id = i
        if op.cap_s is not None and max_rss_kb is None:
            # A capped operation's memory depends on how far it got before
            # its cap, so peak memory is taken before the first one.
            max_rss_kb = _max_rss_kb()
        latency, outcome, detail = run_op(op)
        rows.append([op.name, latency, outcome, detail, latency])
    kernel.append(speed.measure())
    for row, seg in zip(rows, segments):
        if row[2] != "timeout":
            row[1] = speed.to_reference(row[1], kernel[seg], kernel[seg + 1])
    result = {"rows": rows, "max_rss_kb": max_rss_kb or _max_rss_kb()}
    if tracer:
        result["layers"] = tr.layer_metrics(tracer.spans)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return result


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(argv, trace: bool) -> dict:
    tracer = tr.Tracer() if trace else None
    if tracer:
        tr.install(tracer)
    out = io.StringIO()
    rc = crz.run_cli(argv, out=out)
    return {"rc": rc, "stdout": out.getvalue(), "spans": tracer.spans if tracer else []}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("pass", "cli"))
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", choices=wl.IN_PROCESS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    own, cli_argv = sys.argv[1:], []
    if "--" in own:
        at = own.index("--")
        own, cli_argv = own[:at], own[at + 1:]
    args = ap.parse_args(own)
    if args.mode == "pass":
        result = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
    else:
        result = run_cli(cli_argv, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))


if __name__ == "__main__":
    main()
