"""Exact arithmetic on the space of closed subgroups of R x Z.

Canonical four-family subgroup values, the Chabauty (pointed-Hausdorff)
metric computed exactly, chart maps onto the cone / Hawaiian
earring model space, a constructive circle blow-up with its gluing, and
seeded verification suites behind a CLI.
"""

from importlib import import_module as _import_module

# The public surface, declared once: each module, in import order, with the
# names the package binds from it; ``__all__`` is these names.  A name is
# here when the acceptance gate, the benchmark, CI or the README reads it
# from the package; when it is a typed error; or when it is a record class
# or constant that a function here takes or returns.  Every other name is
# reached through its module (``chabauty_rz.denjoy.MAX_GRID``).
# These modules load at import, for the bench tracer; json, random, argparse, plot on first use.
_PUBLIC = {
    "rationals": ("INF", "InvalidParameter", "as_fraction"),
    "subgroups": (
        "MAX_BALL_POINTS", "BallElements", "PointRZ", "Strip", "ZeroPoint",
        "TypeI", "TypeII", "TypeIII", "TypeIV",
        "classify_from_generators", "elements_in_ball", "eta_cyclic", "membership",
    ),
    "metric": (
        "DistanceBracket", "InvalidSequence", "LimitReport", "ToleranceInvalid",
        "Witness", "chabauty_distance", "distance_witness", "hausdorff_inclusion_ok",
        "subgroup_subset", "verify_limit",
    ),
    "earring": (
        "BASEPOINT", "AxisCoord", "Basepoint", "BoundaryPoint", "ConePoint",
        "NonCanonicalModelPoint", "OnCircle",
        "chart_psi_I", "chart_psi_I_inverse", "chart_psi_II_n", "chart_psi_II_n_inverse",
        "chart_psi_III_n", "chart_psi_III_n_inverse",
        "model_to_subgroup", "subgroup_to_model", "winding_count",
    ),
    "denjoy": (
        "IRRATIONAL", "Interval", "IrrationalPoint", "Unresolved", "UnresolvedInput",
        "UnresolvedSample", "blowup_total_length", "denjoy_xi", "glue_boundary",
        "winding_count_sampled",
    ),
    "oracle": ("oracle_closure_ball", "totient"),
    "equivalence": ("BoundaryCoord", "check_equivalence", "subgroup_image"),
    "literals": ("ParseError", "format_subgroup", "parse_subgroup"),
    "suites": ("CaseResult", "SuiteReport", "UnknownSuite", "run_suite"),
    "cli": ("run_cli",),
}

for _name, _names in _PUBLIC.items():
    _module = _import_module(f".{_name}", __name__)
    globals().update({name: getattr(_module, name) for name in _names})
del _name, _names, _module

__all__ = [name for names in _PUBLIC.values() for name in names]
