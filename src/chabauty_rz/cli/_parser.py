"""The argument parser of the command-line front end.

A module of its own so that ``argparse`` loads on the first ``run_cli``
call, not on ``import chabauty_rz``.
"""

from __future__ import annotations

import argparse
import re

from ..earring import MAX_CIRCLES, MAX_CONES, MAX_WIND_RATIO
from ..denjoy import MAX_GRID, MAX_PRECISION
from ..suites import MAX_BUDGET, SUITE_NAMES


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


def _build_parser(description: str) -> argparse.ArgumentParser:
    p = _Parser(prog="chabauty-rz", description=description)
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
