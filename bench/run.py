"""Benchmark of chabauty-rz: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  It
measures set-up (fresh interpreter to ``import chabauty_rz`` returned) a
few times, then repeats the workload's fixed list of operations, one
fresh process per pass (per command for ``cli-mix``), until S seconds have
passed; each operation counts at its median latency over the passes.
Times are in reference seconds (see ``speed.py``), and the benchmark keeps
itself and its children on one CPU, so that the calibration runs where
the work runs.  Every answer is checked.  It prints each metric with its
unit, then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced passes (alternated with
untraced ones to give ``trace.overhead_frac``).  A record of the run, one
row per operation, is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
IMPORTTIME_PROBES = 3
HARD_LIMIT_S = 170  # the whole run, set-up included, ends before this
THIRD_PARTY = ("sympy", "numpy")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.python = sys.executable
        self.out_dir = os.path.join(HERE, "out")
        self.work_dir = os.path.join(self.out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(self.work_dir, exist_ok=True)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="ignore")
        self.started = time.perf_counter()
        self.stopped_early = False
        self.worker_rss_kb = 0  # largest peak reported by a pass worker
        self.last_start_kernel = None  # the start kernel run after the last child

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, cmd):
        """Run a child to completion; returns (rc, stdout, stderr, seconds)."""
        self.last_start_kernel = None  # a kernel run before this child is stale after it
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
            self.stopped_early = True
            return None, exc.stdout or "", "timed out", time.perf_counter() - t0
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def start_kernel(self) -> float:
        self.last_start_kernel = speed.measure_start(self.python, self.env, self.root)
        return self.last_start_kernel

    def spawn_calibrated(self, cmd):
        """``spawn`` between two runs of the start kernel (the one after the
        previous child serves as the one before this child); returns (rc,
        stdout, stderr, seconds, reference seconds)."""
        before = self.last_start_kernel or self.start_kernel()
        rc, out, err, seconds = self.spawn(cmd)
        scaled = speed.to_reference(seconds, before, self.start_kernel(), speed.START_REFERENCE_S)
        return rc, out, err, seconds, scaled

    # -- set-up ------------------------------------------------------------

    def setup_samples(self):
        code = "import chabauty_rz; import time; print(repr(time.time()))"
        self.spawn([self.python, "-c", code])  # writes bytecode caches; not timed
        samples = []
        for _ in range(SETUP_PROBES):
            before = self.last_start_kernel or self.start_kernel()
            launched = time.time()
            rc, out, err, _ = self.spawn([self.python, "-c", code])
            if rc != 0:
                raise SystemExit(f"import chabauty_rz failed: {err.strip()[-500:]}")
            imported = float(out.strip()) - launched
            samples.append(speed.to_reference(imported, before, self.start_kernel(),
                                              speed.START_REFERENCE_S))
        return samples

    def import_layers(self):
        totals, third = [], []
        for _ in range(IMPORTTIME_PROBES):
            rc, _, err, _ = self.spawn([self.python, "-X", "importtime", "-c", "import chabauty_rz"])
            cumulative = {}
            for line in err.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
            totals.append(cumulative.get("chabauty_rz", 0.0))
            third.append(sum(cumulative.get(name, 0.0) for name in THIRD_PARTY))
        return {"import.total_s": statistics.median(totals),
                "import.third_party_s": statistics.median(third)}

    # -- passes --------------------------------------------------------------

    def in_process_pass(self, n: int, traced: bool):
        result_path = os.path.join(self.work_dir, f"pass{n}.json")
        spans_path = os.path.join(self.out_dir, f"spans-{self.args.workload}-seed{self.args.seed}.json")
        rc, _, err, _ = self.spawn([
            self.python, os.path.join(HERE, "worker.py"), "pass", "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--trace", str(int(traced)), "--result", result_path, "--spans", spans_path,
        ])
        if rc != 0:
            return [["pass", 0.0, "error", f"worker exit {rc}: {err.strip()[-2000:]}", 0.0]], {}
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        self.worker_rss_kb = max(self.worker_rss_kb, result["max_rss_kb"])
        return result["rows"], result.get("layers", {})

    def peak_rss_mb(self) -> float:
        """Largest resident set of a workload process: the pass worker (before
        any capped operation), or for cli-mix the largest command."""
        if self.args.workload == "cli-mix":
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return self.worker_rss_kb / 1024

    def cli_pass(self, n: int, traced: bool):
        ref = wl.load_reference()
        cmd_dir = os.path.relpath(os.path.join(self.work_dir, "cli"), self.root)
        wl.write_cli_inputs(ref, os.path.join(self.root, cmd_dir))
        rows, spans = [], []
        via_worker = bool(self.args.trace)  # both kinds of pass alike in a traced run
        for i, (argv, expect) in enumerate(wl.cli_round(self.args.seed, ref, cmd_dir)):
            if via_worker:
                result_path = os.path.join(self.work_dir, f"cli{n}-{i}.json")
                cmd = [self.python, os.path.join(HERE, "worker.py"), "cli", "--trace", str(int(traced)),
                       "--result", result_path, "--", *argv]
            else:
                cmd = [self.python, "-m", "chabauty_rz.cli", *argv]
            rc, out, err, seconds, latency = self.spawn_calibrated(cmd)
            if via_worker and rc == 0:
                with open(result_path, encoding="utf-8") as fh:
                    result = json.load(fh)
                os.remove(result_path)
                rc, out = result["rc"], result["stdout"]
                offset = len(spans)
                spans.extend([s[0] + offset, None if s[1] is None else s[1] + offset, i, *s[3:]]
                             for s in result["spans"])
            bad = checks.check_cli(rc, out, expect) if rc is not None else "timed out"
            rows.append([argv[0], latency, "wrong" if bad else "ok", bad or None, seconds])
        return rows, (tracer.layer_metrics(spans) if traced else {})

    def passes(self, traced_pattern):
        """Run passes while the next one is expected to end within the run's
        seconds (at least one, and one of each kind when tracing); returns a
        list of (traced, rows, layers)."""
        run_pass = self.cli_pass if self.args.workload == "cli-mix" else self.in_process_pass
        t0 = time.perf_counter()
        done = []
        while True:
            longest = max((p[3] for p in done), default=0.0)
            kinds = {t for t, *_ in done} >= {traced_pattern(0), traced_pattern(1)}
            if kinds and time.perf_counter() - t0 + longest > self.args.seconds:
                break
            if done and (self.stopped_early or self.remaining() < 1.5 * longest + 5):
                break
            traced = traced_pattern(len(done))
            p0 = time.perf_counter()
            rows, layers = run_pass(len(done), traced)
            done.append((traced, rows, layers, time.perf_counter() - p0))
        return [(t, rows, layers) for t, rows, layers, _ in done]


def op_latencies(pass_rows):
    """Each operation's median latency over the passes.

    Every pass runs the same list, so position i is the same operation in
    each; a pass cut short by a failure is left out.
    """
    full = max(len(rows) for rows in pass_rows)
    complete = [rows for rows in pass_rows if len(rows) == full]
    return [statistics.median(rows[i][1] for rows in complete) for i in range(full)]


def tail(latencies):
    """Latency at the highest percentile with at least ten operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(passes, setup, peak_rss_mb):
    latencies = op_latencies([rows for _, rows, _ in passes])
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"passes": len(passes), "op_tail_percentile": tail_pct, "op_count": n}
    return metrics, notes


def per_layer(passes, import_layers):
    traced = [layers for t, _, layers in passes if t]
    plain_wall = sum(op_latencies([rows for t, rows, _ in passes if not t]))
    traced_wall = sum(op_latencies([rows for t, rows, _ in passes if t]))
    metrics = dict(import_layers)
    for name in max(traced, key=len):
        metrics[name] = statistics.median(layers.get(name, 0.0) for layers in traced)
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_distance"):
        return "ratio"
    return "count"


def environment(root: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": git_commit(root),
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chabauty_rz", "__init__.py")):
        print("run from the repository root: src/chabauty_rz is missing", file=sys.stderr)
        return 2

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    run = Run(root, args)
    setup = run.setup_samples()
    if args.trace:
        import_layers = run.import_layers()
        passes = run.passes(lambda n: n % 2 == 1)
        metrics = per_layer(passes, import_layers)
        notes = {"passes": len(passes)}
    else:
        passes = run.passes(lambda n: False)
        metrics, notes = end_to_end(passes, setup, run.peak_rss_mb())

    rows = [[i, *r] for i, (_, pass_rows, _) in enumerate(passes) for r in pass_rows]
    timeouts = sum(1 for r in rows if r[3] == "timeout")
    failed = sum(1 for r in rows if r[3] in ("wrong", "error"))
    notes.update(timeouts=timeouts, failed=failed, attempted=len(rows),
                 failed_frac=(timeouts + failed) / len(rows), stopped_early=run.stopped_early)

    record = {"env": environment(root, args.seed), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace, "setup_samples": setup,
              "metrics": metrics, "notes": notes,
              "ops": [{"pass": r[0], "name": r[1], "latency_s": r[2], "measured_s": r[5],
                       "outcome": r[3], **({"detail": r[4]} if r[4] else {})} for r in rows]}
    record_path = os.path.join(run.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run.work_dir)  # this run's scratch files and CLI inputs

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"failed_frac {notes['failed_frac']:.4g} ({failed} failed + {timeouts} timeouts "
          f"of {len(rows)} attempted)")
    if "op_tail_percentile" in notes:
        print(f"op_tail_s is p{notes['op_tail_percentile']:.2f} of the {notes['op_count']} operations "
              f"of the list, each at its median over {notes['passes']} passes")
    if args.trace:
        print(f"metric.subset_shortcut_frac base: {metrics['metric.inclusion_calls']:g} inclusion calls; "
              f"metric.ball_points_per_distance base: {metrics['metric.distance_calls']:g} distances")
    for r in rows:
        if r[3] in ("wrong", "error"):
            print(f"FAILED {r[1]} (pass {r[0]}): {r[4]}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not run.stopped_early,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
