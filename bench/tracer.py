"""Spans around the calls into each layer of ``chabauty_rz``, from outside.

``install`` replaces each traced public function on every package module
that holds it, so calls between modules (``metric`` calling
``subgroups.elements_in_ball``, say) pass through the wrapper too.  A span
is (id, parent id, op id, layer, start, end, size); spans stay in memory
and are written out once the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import workloads as wl

#: (module, function, layer).  Several functions may share a layer.
TARGETS = [
    ("literals", "parse_subgroup", "literals.parse"),
    ("subgroups", "classify_from_generators", "subgroups.classify"),
    ("subgroups", "elements_in_ball", "subgroups.ball"),
    ("subgroups", "distance_point_to_subgroup", "subgroups.point_dist"),
    ("metric", "chabauty_distance", "metric.distance"),
    ("metric", "hausdorff_inclusion_ok", "metric.inclusion"),
    ("oracle", "oracle_closure_ball", "oracle.closure_ball"),
    ("earring", "chart_psi_I", "earring.chart"),
    ("earring", "chart_psi_I_inverse", "earring.chart"),
    ("earring", "chart_psi_II_n", "earring.chart"),
    ("earring", "chart_psi_II_n_inverse", "earring.chart"),
    ("earring", "chart_psi_III_n", "earring.chart"),
    ("earring", "chart_psi_III_n_inverse", "earring.chart"),
    ("earring", "subgroup_to_model", "earring.chart"),
    ("earring", "model_to_subgroup", "earring.chart"),
    ("equivalence", "check_equivalence", "equivalence.check"),
    ("equivalence", "subgroup_image", "equivalence.check"),
    ("denjoy", "blowup_total_length", "denjoy.layout"),
    ("denjoy", "denjoy_xi", "denjoy.xi"),
    ("denjoy", "winding_count_sampled", "denjoy.wind_sampled"),
    ("suites", "run_suite", "suites"),
    ("cli", "run_cli", "cli.inproc"),
]
#: Layers reported as self time: their spans nest other traced layers.
SELF_TIME = {"metric.distance", "metric.inclusion"}


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.op_id: Optional[int] = None

    def wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled when the call ends
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.op_id, _label(layer, args),
                                  start, end, _size(result))

        return traced


def _label(layer: str, args) -> str:
    if layer == "suites":
        return f"suites.{args[0]}"
    if layer == "denjoy.layout":
        return f"denjoy.layout{args[0]}"
    return layer


def _size(result) -> int:
    points = getattr(result, "points", None)
    if points is None:
        return 0
    return len(points) + len(result.strips)


def install(tracer: Tracer) -> None:
    """Wrap every target on every loaded ``chabauty_rz`` module."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "chabauty_rz" or name.startswith("chabauty_rz."))]
    for mod_name, fn_name, layer in TARGETS:
        fn = getattr(sys.modules[f"chabauty_rz.{mod_name}"], fn_name)
        wrapped = tracer.wrap(layer, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)


def layer_metrics(spans: List[tuple]) -> Dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[5] - s[4]

    def has_ancestor(s, pred):
        parent = s[1]
        while parent is not None:
            p = by_id[parent]
            if pred(p):
                return True
            parent = p[1]
        return False

    calls = defaultdict(int)
    seconds = defaultdict(float)
    for s in spans:
        layer, dur = s[3], s[5] - s[4]
        calls[layer] += 1
        if layer in SELF_TIME:
            seconds[layer] += dur - child_time[s[0]]
        elif not has_ancestor(s, lambda p: p[3] == layer):  # outermost span only
            seconds[layer] += dur

    ball = [s for s in spans if s[3] == "subgroups.ball"]
    inclusions = [s for s in spans if s[3] == "metric.inclusion"]
    with_ball = {s[1] for s in ball}
    distance_points = sum(
        s[6] for s in ball if has_ancestor(s, lambda p: p[3] == "metric.distance")
    )
    m = {}
    for layer in ("literals.parse", "subgroups.classify", "subgroups.ball",
                  "subgroups.point_dist", "metric.distance", "metric.inclusion",
                  "oracle.closure_ball", "earring.chart", "equivalence.check",
                  "denjoy.xi", "denjoy.wind_sampled"):
        m[f"{layer}_calls"] = calls[layer]
        m[f"{layer}_s"] = seconds[layer]
    m["subgroups.ball_points"] = sum(s[6] for s in ball)
    m["metric.subset_shortcut_frac"] = _ratio(
        sum(1 for s in inclusions if s[0] not in with_ball), len(inclusions))
    m["metric.ball_points_per_distance"] = _ratio(distance_points, calls["metric.distance"])
    for B in wl.BLOWUP_PRECISIONS:
        m[f"denjoy.layout{B}_s"] = seconds[f"denjoy.layout{B}"]
    for name in wl.SUITE_BUDGETS:
        m[f"suites.{name}_s"] = seconds[f"suites.{name}"]
    m["cli.inproc_s"] = sum(s[5] - s[4] for s in spans if s[3] == "cli.inproc")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
