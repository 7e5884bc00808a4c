"""Hausdorff measure of double-loop family components.

For the two-vertex double-loop family with dimension s, whenever

    (1)  (1 - a^s) / b^s <= 1, and
    (2)  (1 - b)(1 - a^s) / (b a^s) >= 1,

the s-dimensional Hausdorff measures are exactly H^s(F_u) = 1 and
H^s(F_v) = (1 - a^s)/b^s.  The criterion is one-directional: when either
condition fails nothing is concluded and no measure value is reported.

Condition values are classified with a boundary tolerance because natural
instances sit exactly on the bound of condition (1); a strict-inequality
check would wrongly reject them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .dimension import _MP, _to_mpf, double_loop_char_root, mpf
from .families import DoubleLoopParams


class ConditionStatus(enum.Enum):
    HOLDS = "Holds"
    HOLDS_AT_BOUNDARY = "HoldsAtBoundary"
    FAILS = "Fails"


@dataclass(frozen=True)
class ConditionCheck:
    """One inequality classified against its bound.

    `warning` is set when the value is within eps of the bound but on the
    failing side; such values are classified HoldsAtBoundary rather than
    Fails so that exact-equality instances survive numeric evaluation.
    """

    status: ConditionStatus
    value: mpf
    warning: bool = False


def _classify(value: mpf, bound: mpf, upper: bool, eps: mpf) -> ConditionCheck:
    """Classify `value <= bound` (upper=True) or `value >= bound`."""
    delta = (bound - value) if upper else (value - bound)
    if delta > eps:
        return ConditionCheck(ConditionStatus.HOLDS, value)
    if delta >= -eps:
        return ConditionCheck(ConditionStatus.HOLDS_AT_BOUNDARY, value,
                              warning=delta < 0)
    return ConditionCheck(ConditionStatus.FAILS, value)


def _eps(eps) -> mpf:
    """eps in working precision; an eps of 0 or below, NaN or infinite
    would classify every value against nothing."""
    eps = _to_mpf(eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not _MP.isfinite(eps):
        raise ValueError("eps must be finite")
    return eps


def measure_conditions(params: DoubleLoopParams, s,
                       eps: float = 1e-9) -> tuple[ConditionCheck, ConditionCheck]:
    """Evaluate and classify the two measure-formula conditions at s."""
    s = _to_mpf(s)
    eps = _eps(eps)
    a, b = _to_mpf(params.a), _to_mpf(params.b)
    a_s = a**s
    value1 = (1 - a_s) / b**s
    value2 = (1 - b) * (1 - a_s) / (b * a_s)
    return (_classify(value1, mpf(1), upper=True, eps=eps),
            _classify(value2, mpf(1), upper=False, eps=eps))


@dataclass(frozen=True)
class MeasureResult:
    """Measure computation outcome; h_u/h_v are populated only when
    neither condition fails (otherwise the criterion says nothing)."""

    s: mpf
    cond1: ConditionCheck
    cond2: ConditionCheck
    h_u: Optional[mpf]
    h_v: Optional[mpf]


def component_measures(params: DoubleLoopParams, tol: float = 1e-12,
                       eps: float = 1e-9) -> MeasureResult:
    """Dimension plus, when the conditions allow, exact-form measures
    H^s(F_u) = 1 and H^s(F_v) = (1 - a^s)/b^s.  Raises ValueError,
    before the solve, when eps is not a finite positive number or tol is
    at least eps: an s solved only to eps or coarser is too coarse for
    comparisons within eps."""
    if _to_mpf(tol) >= _eps(eps):
        raise ValueError("tol must be below eps")
    s = double_loop_char_root(params, tol)
    cond1, cond2 = measure_conditions(params, s, eps)
    h_u = h_v = None
    if ConditionStatus.FAILS not in (cond1.status, cond2.status):
        h_u = mpf(1)
        h_v = cond1.value
    return MeasureResult(s, cond1, cond2, h_u, h_v)
