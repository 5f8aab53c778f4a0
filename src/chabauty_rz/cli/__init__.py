"""Command-line front end.

Exit codes: 0 success (and passing reports), 1 InvalidParameter (the base
of every typed domain error), OSError or a failing verification report,
2 parse or usage error.  All numeric input is exact rational text; no
floats are accepted anywhere.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from contextlib import redirect_stdout
from typing import List, Optional

from ..rationals import fmt_q, fmt_record
from ..subgroups import InvalidParameter
from ..metric import chabauty_distance, verify_limit
from ..earring import (
    MAX_WIND_RATIO,
    AxisCoord,
    Basepoint,
    ConePoint,
    OnCircle,
    subgroup_to_model,
    winding_count,
)
from ..denjoy import MAX_GRID, MAX_PRECISION, winding_count_sampled
from ..literals import ParseError, format_subgroup, parse_rational, parse_subgroup
from ..plot import MAX_CIRCLES, MAX_CONES, write_model_svg
from ..suites import MAX_BUDGET, SUITE_NAMES, run_suite


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-1/2" for a value, as argparse already takes "-1"
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    # argparse calls sys.exit(2) on usage errors; route through our codes
    def error(self, message):
        raise _UsageError(message)

    # and sys.exit(0) after -h prints the help (only error() passes a
    # message); return that status instead
    def exit(self, status=0, message=None):
        raise _Exit(status)


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse stopped after -h; ``args[0]`` is its exit status."""


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="chabauty-rz", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="canonical form of a subgroup literal")
    c.add_argument("literal")

    d = sub.add_parser("dist", help="Chabauty distance bracket")
    d.add_argument("left")
    d.add_argument("right")
    d.add_argument("--tol", default="1/1000", help="rational <q>")

    l = sub.add_parser("limit", help="verify a sequence's limit")
    l.add_argument("--seq", required=True, help="file with one literal per line")
    l.add_argument("--limit", required=True)
    l.add_argument("--tol", default="1/100", help="rational <q>")
    l.add_argument("--tail", type=int, default=3)

    m = sub.add_parser("model", help="model-space coordinate of a subgroup")
    m.add_argument("literal")

    w = sub.add_parser("wind", help="winding count of a cone boundary")
    w.add_argument("--cone", type=int, required=True)
    w.add_argument("--circle", type=int, required=True,
                   help=f"circle index, at most {MAX_WIND_RATIO} times --cone "
                        "unless --sampled")
    w.add_argument("--sampled", action="store_true")
    w.add_argument("--grid", type=int, default=4096,
                   help=f"sample points for --sampled, 8 to {MAX_GRID}")
    w.add_argument("--prec", type=int, default=64,
                   help=f"blow-up precision for --sampled, 1 to {MAX_PRECISION}")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   help=f"one of {', '.join(SUITE_NAMES)}, or 'all' for each in turn")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=int, default=100,
                   help=f"random cases per suite, 1 to {MAX_BUDGET}")
    v.add_argument("--json", action="store_true")

    g = sub.add_parser("plot", help="schematic SVG of the model space")
    g.add_argument("--out", required=True)
    g.add_argument("--circles", type=int, default=6,
                   help=f"earring circles, 1 to {MAX_CIRCLES}")
    g.add_argument("--cones", type=int, default=4,
                   help=f"cones, 1 to {MAX_CONES}")

    return p


def _read_sequence(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", exc.start, path) from None
    seq = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            seq.append(parse_subgroup(line))
        except ParseError as exc:
            raise ParseError(exc.message, exc.position, f"{path}:{lineno}") from exc
    return seq


_MODEL_NAMES = {AxisCoord: "segment", ConePoint: "cone", OnCircle: "earring"}


def _model_text(H) -> str:
    m = subgroup_to_model(H)
    if isinstance(m, Basepoint):
        return "earring(basepoint)"
    return fmt_record(_MODEL_NAMES[type(m)], m)


def _bracket_text(br) -> str:
    return f"[{fmt_q(br.lo)},{fmt_q(br.hi)}]"


def _dispatch(args, out) -> int:
    if args.command == "classify":
        print(format_subgroup(parse_subgroup(args.literal)), file=out)
        return 0

    if args.command == "dist":
        br = chabauty_distance(
            parse_subgroup(args.left),
            parse_subgroup(args.right),
            parse_rational(args.tol),
        )
        print(_bracket_text(br), file=out)
        return 0

    if args.command == "limit":
        seq = _read_sequence(args.seq)
        limit = parse_subgroup(args.limit)
        report = verify_limit(seq, limit, parse_rational(args.tol), args.tail)
        for i, br in enumerate(report.distances, start=1):
            print(f"term {i}: {_bracket_text(br)}", file=out)
        print(f"result {'pass' if report.passed else 'fail'}", file=out)
        return 0 if report.passed else 1

    if args.command == "model":
        print(_model_text(parse_subgroup(args.literal)), file=out)
        return 0

    if args.command == "wind":
        if args.sampled:
            count = winding_count_sampled(
                args.cone, args.circle, args.grid, args.prec
            )
        else:
            count = winding_count(args.cone, args.circle)
        print(count, file=out)
        return 0

    if args.command == "verify":
        names = SUITE_NAMES if args.suite == "all" else (args.suite,)
        reports = [run_suite(name, args.seed, args.budget) for name in names]
        passed = all(r.passed for r in reports)
        if args.suite == "all" and args.json:
            doc = {"pass": passed, "suites": [r.to_dict() for r in reports]}
            print(json.dumps(doc, indent=2), file=out)
        else:
            for report in reports:
                print(report.to_json() if args.json else report.to_text(), file=out)
        return 0 if passed else 1

    if args.command == "plot":
        write_model_svg(args.out, args.circles, args.cones)
        print(f"wrote {args.out}", file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def run_cli(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        with redirect_stdout(out):  # where argparse prints the -h help
            args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _Exit as exc:
        return exc.args[0]
    try:
        return _dispatch(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameter, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
