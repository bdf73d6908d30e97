"""Convergence and fairness metrics for rate time-series.

Operate on the ``(time, rate)`` series produced by
:class:`repro.experiments.samplers.RateSampler`:

* :func:`jain_index` — Jain's fairness index over per-entity allocations;
* :func:`time_to_share` — how long an entity takes to first reach a target
  share of capacity (the Fig 8 takeover/reclaim measurements generalised);
* :func:`utilization` — mean aggregate share of capacity over a window;
* :func:`stability` — coefficient of variation of the aggregate rate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = ["jain_index", "time_to_share", "utilization", "stability"]

Series = Sequence[Tuple[int, float]]


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly fair, 1/n = one entity hogs all."""
    if not allocations:
        raise ValueError("no allocations")
    if any(a < 0 for a in allocations):
        raise ValueError("allocations must be non-negative")
    total = sum(allocations)
    if total == 0:
        return 1.0  # nobody got anything: vacuously fair
    squares = sum(a * a for a in allocations)
    return total * total / (len(allocations) * squares)


def time_to_share(
    series: Series, capacity: float, share: float, t_from: int = 0
) -> Optional[int]:
    """First time >= ``t_from`` the series reaches ``share`` of capacity."""
    if not 0 < share <= 1:
        raise ValueError("share must be in (0, 1]")
    threshold = share * capacity
    for t, r in series:
        if t >= t_from and r >= threshold:
            return t
    return None


def utilization(series_list: Iterable[Series], capacity: float, t_from: int = 0, t_to: int = 1 << 62) -> float:
    """Mean aggregate share of capacity across entities over a window."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    per_time: Dict[int, float] = {}
    for series in series_list:
        for t, r in series:
            if t_from <= t <= t_to:
                per_time[t] = per_time.get(t, 0.0) + r
    if not per_time:
        return 0.0
    return sum(per_time.values()) / len(per_time) / capacity


def stability(series: Series, t_from: int = 0, t_to: int = 1 << 62) -> float:
    """Coefficient of variation (σ/μ) of the rate in a window; 0 = rock solid."""
    vals = [r for t, r in series if t_from <= t <= t_to]
    if not vals:
        raise ValueError("empty window")
    mean = sum(vals) / len(vals)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return math.sqrt(var) / mean
