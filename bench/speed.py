"""The host's current speed, from fixed calibration kernels.

The hosts this benchmark runs on may be shared, and their speed can swing
by a factor of two within seconds and drift over minutes; CPU time swings
with wall time, so it does not help.  So every timed piece of work is
bracketed by runs of a fixed kernel, and its latency is reported in
reference seconds: ``latency * reference / kernel time``.  There are two
kernels, because the two kinds of work slow down differently:

- ``measure``, for work inside a process: small ``Fraction`` arithmetic
  with dict lookups, then unmarshalling and running module code;
- ``measure_start``, for fresh processes (set-up and CLI commands): an
  interpreter that starts and imports two standard modules.

Neither uses anything from ``chabauty_rz``, so no change to the program
moves them.
"""

from __future__ import annotations

import functools
import importlib.util
import marshal
import subprocess
import time
from fractions import Fraction

#: The kernels' times on the host the benchmark was defined on (a 2-vCPU
#: Xeon VM, Python 3.11) in its fast state.  Only the scale of the reported
#: times depends on them.
REFERENCE_S = 0.003
START_REFERENCE_S = 0.045
REPEATS = 3
START_REPEATS = 2
START_CODE = "import json, fractions"

_MODULES = ("fractions", "argparse", "dataclasses")


@functools.cache
def _code() -> tuple:
    """Marshalled code of a few standard library modules."""
    blobs = []
    for name in _MODULES:
        origin = importlib.util.find_spec(name).origin
        with open(origin, encoding="utf-8") as fh:
            blobs.append(marshal.dumps(compile(fh.read(), origin, "exec")))
    return tuple(blobs)


def kernel() -> None:
    """The in-process calibration work; its cost never changes."""
    total, seen = Fraction(0), {}
    for i in range(1, 600):
        total += Fraction(i % 13 - 6, i % 97 + 1)
        seen[total.numerator % 1009] = total
    for blob in _code():
        exec(marshal.loads(blob), {"__name__": "_speed_kernel"})


def measure() -> float:
    """The least of a few kernel runs, in seconds."""
    _code()
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_start(python: str, env: dict, cwd: str) -> float:
    """The least of a few fresh interpreter starts, in seconds."""
    best = None
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", START_CODE], env=env, cwd=cwd, check=True,
                       capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def to_reference(seconds: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    in reference seconds."""
    return seconds * reference / ((before + after) / 2)
