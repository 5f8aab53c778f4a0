"""Correctness checks.  Each returns None for a right answer, else the reason."""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import List, Optional, Tuple

_BRACKET = re.compile(r"\[(-?\d+(?:/\d+)?),(-?\d+(?:/\d+)?)\]")


def check_exact(got, want) -> Optional[str]:
    return None if got == want else f"got {got!r}, want {want!r}"


def check_bracket(lo, hi, ref_lo, ref_hi, tol) -> Optional[str]:
    """A distance bracket must be at most tol wide and meet the reference.

    Brackets are not compared for equality: an exact answer [d, d] inside
    the reference bracket is right.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        return f"empty bracket [{lo},{hi}]"
    if hi - lo > tol:
        return f"bracket [{lo},{hi}] wider than {tol}"
    if hi < ref_lo or lo > ref_hi:
        return f"bracket [{lo},{hi}] misses reference [{ref_lo},{ref_hi}]"
    return None


def parse_brackets(text: str) -> List[Tuple[Fraction, Fraction]]:
    return [(Fraction(a), Fraction(b)) for a, b in _BRACKET.findall(text)]


def check_cli(rc: int, stdout: str, expect: dict) -> Optional[str]:
    """Check one CLI command's exit code and output against its expectation.

    ``expect`` keys: ``rc`` (always); ``stdout`` for exact output;
    ``brackets`` with ``tol`` and ``last_line`` for distance output;
    ``suite`` for a verification report; ``file`` for a written file.
    """
    if rc != expect["rc"]:
        return f"exit code {rc}, want {expect['rc']}"
    if "stdout" in expect and stdout != expect["stdout"]:
        return f"stdout {stdout!r}, want {expect['stdout']!r}"
    if "brackets" in expect:
        got = parse_brackets(stdout)
        want = [(Fraction(a), Fraction(b)) for a, b in expect["brackets"]]
        if len(got) != len(want):
            return f"{len(got)} brackets in output, want {len(want)}"
        tol = Fraction(expect["tol"])
        for (lo, hi), (rlo, rhi) in zip(got, want):
            bad = check_bracket(lo, hi, rlo, rhi, tol)
            if bad:
                return bad
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        if "last_line" in expect and last != expect["last_line"]:
            return f"last line {last!r}, want {expect['last_line']!r}"
    if "suite" in expect:
        lines = stdout.rstrip("\n").split("\n")
        if not lines[0].startswith(f"suite {expect['suite']} seed "):
            return f"report header {lines[0]!r}"
        if lines[-1] != "result pass" or any(ln.startswith("FAIL") for ln in lines):
            return "suite reported fail"
    if "file" in expect:
        path = expect["file"]
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            return f"{path} was not written"
        with open(path, encoding="utf-8") as fh:
            if "<svg" not in fh.read(4096):
                return f"{path} is not an SVG"
    return None
