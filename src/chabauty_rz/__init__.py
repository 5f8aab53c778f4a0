"""Exact arithmetic on the space of closed subgroups of R x Z.

Canonical four-family subgroup values, the Chabauty (pointed-Hausdorff)
metric computed exactly, chart maps onto the cone / Hawaiian
earring model space, a constructive circle blow-up with its gluing, and
seeded verification suites behind a CLI.
"""

from .rationals import INF, ExtQ, as_fraction, fmt_q, is_inf
from .subgroups import (
    MAX_BALL_POINTS,
    BallElements,
    ClosedSubgroup,
    InvalidParameter,
    PointRZ,
    Strip,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    ZeroPoint,
    canonicalize_params,
    classify_from_generators,
    distance_point_to_subgroup,
    elements_in_ball,
    eta_cyclic,
    level_set,
    membership,
)
from .metric import (
    DistanceBracket,
    InvalidSequence,
    LimitReport,
    ToleranceInvalid,
    Witness,
    chabauty_distance,
    distance_witness,
    hausdorff_inclusion_ok,
    side_sup,
    subgroup_subset,
    verify_limit,
)
from .earring import (
    BASEPOINT,
    AxisCoord,
    Basepoint,
    BoundaryPoint,
    ConePoint,
    EarringPoint,
    ModelPoint,
    NonCanonicalModelPoint,
    OnCircle,
    chart_psi_I,
    chart_psi_I_inverse,
    chart_psi_II_n,
    chart_psi_II_n_inverse,
    chart_psi_III_n,
    chart_psi_III_n_inverse,
    embed_earring,
    model_to_subgroup,
    subgroup_to_model,
    winding_count,
)
from .denjoy import (
    IRRATIONAL,
    DenjoyCoord,
    Interval,
    IrrationalPoint,
    Unresolved,
    UnresolvedInput,
    UnresolvedSample,
    blowup_interval_start,
    blowup_total_length,
    denjoy_xi,
    glue_boundary,
    slope_from_lambda,
    winding_count_sampled,
)
from .oracle import oracle_closure_ball, totient
from .equivalence import (
    BoundaryCoord,
    Coordinate,
    check_equivalence,
    subgroup_image,
)
from .literals import ParseError, format_subgroup, parse_rational, parse_subgroup
from .suites import CaseResult, SuiteReport, UnknownSuite, run_suite
from .cli import run_cli

__all__ = [name for name in dir() if not name.startswith("_")]
