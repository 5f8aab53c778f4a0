"""Edge values through every check and map that decides on numerators and
denominators: the constructors' range checks, ``canonicalize_params``'
beta mod 1, the chart and equivalence maps, and the tolerance check of
``chabauty_distance``.

Each outcome was recorded from the same calls when these checks were
``Fraction`` comparisons (``alpha < 0``, ``0 <= beta < 1``, ``beta % 1``,
``tol <= 0``): the repr of the value, or the error's type and message.
Where a rational is needed, INF once raised ``Fraction``'s ``TypeError``;
``as_fraction`` now refuses it with ``InvalidParameter``, and those rows
say so.
"""

from fractions import Fraction

import pytest

from chabauty_rz import (
    INF,
    AxisCoord,
    BoundaryCoord,
    ConePoint,
    OnCircle,
    TypeI,
    TypeII,
    TypeIII,
    chabauty_distance,
    chart_psi_II_n,
    chart_psi_II_n_inverse,
    check_equivalence,
    model_to_subgroup,
    subgroup_to_model,
)
from chabauty_rz.subgroups import canonicalize_params

CALLS = {
    "TypeI": lambda v: TypeI(v),
    "TypeIII alpha": lambda v: TypeIII(v, Fraction(1, 3), 1),
    "TypeIII beta": lambda v: TypeIII(2, v, 1),
    "AxisCoord": lambda v: AxisCoord(v),
    "ConePoint alpha": lambda v: ConePoint(1, v, 0),
    "ConePoint beta": lambda v: ConePoint(2, 1, v),
    "BoundaryCoord": lambda v: BoundaryCoord(v, 1),
    "canonicalize III n=1": lambda v: canonicalize_params("III", alpha=2, beta=v, n=1),
    "canonicalize III n=-2": lambda v: canonicalize_params("III", alpha=2, beta=v, n=-2),
    "canonicalize II n=-2": lambda v: canonicalize_params("II", gamma=v, n=-2),
    "chabauty_distance tol": lambda v: chabauty_distance(TypeI(1), TypeI(2), v),
    "model_to_subgroup axis": lambda v: model_to_subgroup(AxisCoord(v)),
    "model_to_subgroup cone": lambda v: model_to_subgroup(ConePoint(2, v, Fraction(1, 3))),
    "subgroup_to_model I": lambda v: subgroup_to_model(TypeI(v)),
    "chart_psi_II_n": lambda v: chart_psi_II_n(2, OnCircle(3, v)),
    "chart_psi_II_n_inverse": lambda v: chart_psi_II_n_inverse(2, TypeII(v, 6)),
    "check_equivalence": lambda v: check_equivalence(
        (2, BoundaryCoord(Fraction(1, 3), v)), (3, BoundaryCoord(Fraction(1, 2), 3 * Fraction(v) / 2))),
}

#: For each call, (input, outcome) on 0, negatives, 1, 1 - 1/n, INF, int and
#: str inputs.
OUTCOMES = {
    'TypeI': [
        (0, 'TypeI(alpha=Fraction(0, 1))'),
        (-1, ('InvalidParameter', 'TypeI alpha must be >= 0')),
        (Fraction(-1, 2), ('InvalidParameter', 'TypeI alpha must be >= 0')),
        (1, 'TypeI(alpha=Fraction(1, 1))'),
        (Fraction(1, 2), 'TypeI(alpha=Fraction(1, 2))'),
        (Fraction(999, 1000), 'TypeI(alpha=Fraction(999, 1000))'),
        (INF, 'TypeI(alpha=INF)'),
        (3, 'TypeI(alpha=Fraction(3, 1))'),
        ('1/2', 'TypeI(alpha=Fraction(1, 2))'),
        ('-1/3', ('InvalidParameter', 'TypeI alpha must be >= 0')),
    ],
    'TypeIII alpha': [
        (0, ('InvalidParameter', 'TypeIII alpha must be in (0, INF)')),
        (-1, ('InvalidParameter', 'TypeIII alpha must be in (0, INF)')),
        (Fraction(-1, 2), ('InvalidParameter', 'TypeIII alpha must be in (0, INF)')),
        (1, 'TypeIII(alpha=Fraction(1, 1), beta=Fraction(1, 3), n=1)'),
        (Fraction(1, 2), 'TypeIII(alpha=Fraction(1, 2), beta=Fraction(1, 3), n=1)'),
        (Fraction(999, 1000), 'TypeIII(alpha=Fraction(999, 1000), beta=Fraction(1, 3), n=1)'),
        (INF, ('InvalidParameter', 'TypeIII alpha must be in (0, INF)')),
        (3, 'TypeIII(alpha=Fraction(3, 1), beta=Fraction(1, 3), n=1)'),
        ('1/2', 'TypeIII(alpha=Fraction(1, 2), beta=Fraction(1, 3), n=1)'),
        ('-1/3', ('InvalidParameter', 'TypeIII alpha must be in (0, INF)')),
    ],
    'TypeIII beta': [
        (0, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=1)'),
        (-1, ('InvalidParameter', 'TypeIII beta must lie in [0, 1)')),
        (Fraction(-1, 2), ('InvalidParameter', 'TypeIII beta must lie in [0, 1)')),
        (1, ('InvalidParameter', 'TypeIII beta must lie in [0, 1)')),
        (Fraction(1, 2), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=1)'),
        (Fraction(999, 1000), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(999, 1000), n=1)'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, ('InvalidParameter', 'TypeIII beta must lie in [0, 1)')),
        ('1/2', 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=1)'),
        ('-1/3', ('InvalidParameter', 'TypeIII beta must lie in [0, 1)')),
    ],
    'AxisCoord': [
        (0, 'AxisCoord(alpha=Fraction(0, 1))'),
        (-1, ('InvalidParameter', 'axis alpha must be >= 0')),
        (Fraction(-1, 2), ('InvalidParameter', 'axis alpha must be >= 0')),
        (1, 'AxisCoord(alpha=Fraction(1, 1))'),
        (Fraction(1, 2), 'AxisCoord(alpha=Fraction(1, 2))'),
        (Fraction(999, 1000), 'AxisCoord(alpha=Fraction(999, 1000))'),
        (INF, 'AxisCoord(alpha=INF)'),
        (3, 'AxisCoord(alpha=Fraction(3, 1))'),
        ('1/2', 'AxisCoord(alpha=Fraction(1, 2))'),
        ('-1/3', ('InvalidParameter', 'axis alpha must be >= 0')),
    ],
    'ConePoint alpha': [
        (0, 'ConePoint(k=1, alpha=Fraction(0, 1), beta=Fraction(0, 1))'),
        (-1, ('InvalidParameter', 'cone alpha must be in [0, INF]')),
        (Fraction(-1, 2), ('InvalidParameter', 'cone alpha must be in [0, INF]')),
        (1, 'ConePoint(k=1, alpha=Fraction(1, 1), beta=Fraction(0, 1))'),
        (Fraction(1, 2), 'ConePoint(k=1, alpha=Fraction(1, 2), beta=Fraction(0, 1))'),
        (Fraction(999, 1000), 'ConePoint(k=1, alpha=Fraction(999, 1000), beta=Fraction(0, 1))'),
        (INF, 'ConePoint(k=1, alpha=INF, beta=Fraction(0, 1))'),
        (3, 'ConePoint(k=1, alpha=Fraction(3, 1), beta=Fraction(0, 1))'),
        ('1/2', 'ConePoint(k=1, alpha=Fraction(1, 2), beta=Fraction(0, 1))'),
        ('-1/3', ('InvalidParameter', 'cone alpha must be in [0, INF]')),
    ],
    'ConePoint beta': [
        (0, 'ConePoint(k=2, alpha=Fraction(1, 1), beta=Fraction(0, 1))'),
        (-1, ('InvalidParameter', 'cone beta must lie in [0, 1)')),
        (Fraction(-1, 2), ('InvalidParameter', 'cone beta must lie in [0, 1)')),
        (1, ('InvalidParameter', 'cone beta must lie in [0, 1)')),
        (Fraction(1, 2), 'ConePoint(k=2, alpha=Fraction(1, 1), beta=Fraction(1, 2))'),
        (Fraction(999, 1000), 'ConePoint(k=2, alpha=Fraction(1, 1), beta=Fraction(999, 1000))'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, ('InvalidParameter', 'cone beta must lie in [0, 1)')),
        ('1/2', 'ConePoint(k=2, alpha=Fraction(1, 1), beta=Fraction(1, 2))'),
        ('-1/3', ('InvalidParameter', 'cone beta must lie in [0, 1)')),
    ],
    'BoundaryCoord': [
        (0, 'BoundaryCoord(rational=Fraction(0, 1), t=Fraction(1, 1))'),
        (-1, ('InvalidParameter', 'interval label must lie in [0, 1)')),
        (Fraction(-1, 2), ('InvalidParameter', 'interval label must lie in [0, 1)')),
        (1, ('InvalidParameter', 'interval label must lie in [0, 1)')),
        (Fraction(1, 2), 'BoundaryCoord(rational=Fraction(1, 2), t=Fraction(1, 1))'),
        (Fraction(999, 1000), 'BoundaryCoord(rational=Fraction(999, 1000), t=Fraction(1, 1))'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, ('InvalidParameter', 'interval label must lie in [0, 1)')),
        ('1/2', 'BoundaryCoord(rational=Fraction(1, 2), t=Fraction(1, 1))'),
        ('-1/3', ('InvalidParameter', 'interval label must lie in [0, 1)')),
    ],
    'canonicalize III n=1': [
        (0, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=1)'),
        (-1, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=1)'),
        (Fraction(-1, 2), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=1)'),
        (1, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=1)'),
        (Fraction(1, 2), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=1)'),
        (Fraction(999, 1000), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(999, 1000), n=1)'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=1)'),
        ('1/2', 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=1)'),
        ('-1/3', 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(2, 3), n=1)'),
    ],
    'canonicalize III n=-2': [
        (0, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=2)'),
        (-1, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=2)'),
        (Fraction(-1, 2), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=2)'),
        (1, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=2)'),
        (Fraction(1, 2), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=2)'),
        (Fraction(999, 1000), 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 1000), n=2)'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(0, 1), n=2)'),
        ('1/2', 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 2), n=2)'),
        ('-1/3', 'TypeIII(alpha=Fraction(2, 1), beta=Fraction(1, 3), n=2)'),
    ],
    'canonicalize II n=-2': [
        (0, 'TypeII(gamma=Fraction(0, 1), n=2)'),
        (-1, 'TypeII(gamma=Fraction(1, 1), n=2)'),
        (Fraction(-1, 2), 'TypeII(gamma=Fraction(1, 2), n=2)'),
        (1, 'TypeII(gamma=Fraction(-1, 1), n=2)'),
        (Fraction(1, 2), 'TypeII(gamma=Fraction(-1, 2), n=2)'),
        (Fraction(999, 1000), 'TypeII(gamma=Fraction(-999, 1000), n=2)'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'TypeII(gamma=Fraction(-3, 1), n=2)'),
        ('1/2', 'TypeII(gamma=Fraction(-1, 2), n=2)'),
        ('-1/3', 'TypeII(gamma=Fraction(1, 3), n=2)'),
    ],
    'chabauty_distance tol': [
        (0, ('ToleranceInvalid', 'tol must be > 0')),
        (-1, ('ToleranceInvalid', 'tol must be > 0')),
        (Fraction(-1, 2), ('ToleranceInvalid', 'tol must be > 0')),
        (1, 'DistanceBracket(lo=Fraction(1, 2), hi=Fraction(1, 2))'),
        (Fraction(1, 2), 'DistanceBracket(lo=Fraction(1, 2), hi=Fraction(1, 2))'),
        (Fraction(999, 1000), 'DistanceBracket(lo=Fraction(1, 2), hi=Fraction(1, 2))'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'DistanceBracket(lo=Fraction(1, 2), hi=Fraction(1, 2))'),
        ('1/2', 'DistanceBracket(lo=Fraction(1, 2), hi=Fraction(1, 2))'),
        ('-1/3', ('ToleranceInvalid', 'tol must be > 0')),
    ],
    'model_to_subgroup axis': [
        (0, ('NonCanonicalModelPoint', 'axis alpha must be > 0; alpha = 0 is the earring basepoint')),
        (-1, ('InvalidParameter', 'axis alpha must be >= 0')),
        (Fraction(-1, 2), ('InvalidParameter', 'axis alpha must be >= 0')),
        (1, 'TypeI(alpha=Fraction(1, 1))'),
        (Fraction(1, 2), 'TypeI(alpha=Fraction(1, 2))'),
        (Fraction(999, 1000), 'TypeI(alpha=Fraction(999, 1000))'),
        (INF, 'TypeI(alpha=INF)'),
        (3, 'TypeI(alpha=Fraction(3, 1))'),
        ('1/2', 'TypeI(alpha=Fraction(1, 2))'),
        ('-1/3', ('InvalidParameter', 'axis alpha must be >= 0')),
    ],
    'model_to_subgroup cone': [
        (0, ('BoundaryPoint', 'alpha = 0 belongs to the gluing, not the chart')),
        (-1, ('InvalidParameter', 'cone alpha must be in [0, INF]')),
        (Fraction(-1, 2), ('InvalidParameter', 'cone alpha must be in [0, INF]')),
        (1, 'TypeIII(alpha=Fraction(1, 1), beta=Fraction(1, 3), n=2)'),
        (Fraction(1, 2), 'TypeIII(alpha=Fraction(1, 2), beta=Fraction(1, 3), n=2)'),
        (Fraction(999, 1000), 'TypeIII(alpha=Fraction(999, 1000), beta=Fraction(1, 3), n=2)'),
        (INF, 'TypeIV(n=2)'),
        (3, 'TypeIII(alpha=Fraction(3, 1), beta=Fraction(1, 3), n=2)'),
        ('1/2', 'TypeIII(alpha=Fraction(1, 2), beta=Fraction(1, 3), n=2)'),
        ('-1/3', ('InvalidParameter', 'cone alpha must be in [0, INF]')),
    ],
    'subgroup_to_model I': [
        (0, 'Basepoint()'),
        (-1, ('InvalidParameter', 'TypeI alpha must be >= 0')),
        (Fraction(-1, 2), ('InvalidParameter', 'TypeI alpha must be >= 0')),
        (1, 'AxisCoord(alpha=Fraction(1, 1))'),
        (Fraction(1, 2), 'AxisCoord(alpha=Fraction(1, 2))'),
        (Fraction(999, 1000), 'AxisCoord(alpha=Fraction(999, 1000))'),
        (INF, 'AxisCoord(alpha=INF)'),
        (3, 'AxisCoord(alpha=Fraction(3, 1))'),
        ('1/2', 'AxisCoord(alpha=Fraction(1, 2))'),
        ('-1/3', ('InvalidParameter', 'TypeI alpha must be >= 0')),
    ],
    'chart_psi_II_n': [
        (0, 'TypeII(gamma=Fraction(0, 1), n=6)'),
        (-1, 'TypeII(gamma=Fraction(-3, 1), n=6)'),
        (Fraction(-1, 2), 'TypeII(gamma=Fraction(-3, 2), n=6)'),
        (1, 'TypeII(gamma=Fraction(3, 1), n=6)'),
        (Fraction(1, 2), 'TypeII(gamma=Fraction(3, 2), n=6)'),
        (Fraction(999, 1000), 'TypeII(gamma=Fraction(2997, 1000), n=6)'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'TypeII(gamma=Fraction(9, 1), n=6)'),
        ('1/2', 'TypeII(gamma=Fraction(3, 2), n=6)'),
        ('-1/3', 'TypeII(gamma=Fraction(-1, 1), n=6)'),
    ],
    'chart_psi_II_n_inverse': [
        (0, 'OnCircle(circle=3, t=Fraction(0, 1))'),
        (-1, 'OnCircle(circle=3, t=Fraction(-1, 3))'),
        (Fraction(-1, 2), 'OnCircle(circle=3, t=Fraction(-1, 6))'),
        (1, 'OnCircle(circle=3, t=Fraction(1, 3))'),
        (Fraction(1, 2), 'OnCircle(circle=3, t=Fraction(1, 6))'),
        (Fraction(999, 1000), 'OnCircle(circle=3, t=Fraction(333, 1000))'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'OnCircle(circle=3, t=Fraction(1, 1))'),
        ('1/2', 'OnCircle(circle=3, t=Fraction(1, 6))'),
        ('-1/3', 'OnCircle(circle=3, t=Fraction(-1, 9))'),
    ],
    'check_equivalence': [
        (0, 'True'),
        (-1, 'True'),
        (Fraction(-1, 2), 'True'),
        (1, 'True'),
        (Fraction(1, 2), 'True'),
        (Fraction(999, 1000), 'True'),
        (INF, ('InvalidParameter', 'INF is not a rational number')),
        (3, 'True'),
        ('1/2', 'True'),
        ('-1/3', 'True'),
    ],
}


CASES = [(name, value, want) for name, rows in OUTCOMES.items() for value, want in rows]


@pytest.mark.parametrize("name, value, want", CASES, ids=[f"{n}-{v!r}" for n, v, _ in CASES])
def test_same_outcome(name, value, want):
    try:
        got = repr(CALLS[name](value))
    except Exception as exc:  # noqa: BLE001 - the outcome is the error itself
        got = (type(exc).__name__, str(exc))
    assert got == want
