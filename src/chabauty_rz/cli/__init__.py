"""Command-line front end.

Exit codes: 0 success (and passing reports), 1 InvalidParameter (the base
of every typed domain error), OSError or a failing verification report,
2 parse or usage error.  All numeric input is exact rational text; no
floats are accepted anywhere.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from typing import List, Optional

from ..rationals import fmt_q, fmt_record
from ..subgroups import InvalidParameter
from ..metric import chabauty_distance, verify_limit
from ..earring import (
    AxisCoord,
    Basepoint,
    ConePoint,
    OnCircle,
    subgroup_to_model,
    winding_count,
)
from ..denjoy import winding_count_sampled
from ..literals import ParseError, format_subgroup, parse_rational, parse_subgroup
from ..suites import SUITE_NAMES, reports_to_json, run_suite


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
        if args.suite == "all" and args.json:
            print(reports_to_json(reports), file=out)
        else:
            for report in reports:
                print(report.to_json() if args.json else report.to_text(), file=out)
        return 0 if all(r.passed for r in reports) else 1

    if args.command == "plot":
        from ..plot import write_model_svg

        write_model_svg(args.out, args.circles, args.cones)
        print(f"wrote {args.out}", file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def run_cli(argv: Optional[List[str]] = None, out=None) -> int:
    from ._parser import _build_parser, _Exit, _UsageError

    out = out if out is not None else sys.stdout
    parser = _build_parser(__doc__)
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
