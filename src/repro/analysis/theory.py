"""Closed-form results from the paper: Table 2, Appendix C and Appendix D.

* :func:`start_strategy_costs` — Table 2: bytes delayed and maximum extra
  buffer for line-rate, exponential and linear start, in BDP units, as a
  function of the number of RTTs ``n`` taken to reach line rate.
* :func:`potential_backlog` / :func:`linear_start_is_optimal` — numeric
  verification of Theorem 4.1 (Appendix C): among monotone start schedules
  r(t) from 0 to R over [0, T], the linear ramp minimises the worst-case
  potential backlog  b(a) = ∫_a^{a+τ} [r(t) − r(a)] dt.
* :func:`swift_fluctuation_ns` — Appendix D: the worst-case delay
  fluctuation of n synchronised Swift flows,
  ``n·W_AI/R + max(n·β·W_AI/(R·T), max_mdf) · T``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from ..cc.swift import BETA, MAX_MDF

__all__ = [
    "start_strategy_costs",
    "potential_backlog",
    "linear_start_is_optimal",
    "swift_fluctuation_ns",
    "channel_width_ns",
]


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def start_strategy_costs(n_rtts: float) -> Dict[str, Dict[str, float]]:
    """Bytes delayed and max extra buffer (in BDP) per start strategy.

    ``n_rtts`` is the number of RTTs the strategy takes to reach line rate
    (Table 2 and Figure 5 of the paper).
    """
    if n_rtts < 1:
        raise ValueError("a start strategy needs at least one RTT")
    return {
        "line_rate": {"bytes_delayed_bdp": 0.0, "max_extra_buffer_bdp": 1.0},
        "exponential": {
            "bytes_delayed_bdp": n_rtts - 1.5,
            "max_extra_buffer_bdp": 0.5,
        },
        "linear": {
            "bytes_delayed_bdp": n_rtts / 2.0,
            "max_extra_buffer_bdp": 1.0 / n_rtts,
        },
    }


# ----------------------------------------------------------------------
# Appendix C — Theorem 4.1
# ----------------------------------------------------------------------
def potential_backlog(rate_fn: Callable[[float], float], T: float, tau: float) -> float:
    """Worst-case potential buffer backlog of a start schedule.

    ``rate_fn(t)`` gives the send rate at time t (0 <= t <= T), with
    rate_fn(0) = 0 and rate_fn(T) = R.  The backlog sensed one RTT (τ) late
    at time ``a`` is ``∫_a^{a+τ} [r(t) − r(a)] dt``; the theorem concerns its
    maximum over ``a``, sampled at 401 points.
    """
    if tau <= 0 or T <= tau:
        raise ValueError("need 0 < tau < T")
    worst = 0.0
    samples, n_inner = 400, 64
    for i in range(samples + 1):
        a = (T - tau) * i / samples
        r_a = rate_fn(a)
        acc = 0.0
        dt = tau / n_inner
        for j in range(n_inner):
            t = a + (j + 0.5) * dt
            acc += max(0.0, rate_fn(t) - r_a) * dt
        if acc > worst:
            worst = acc
    return worst


def linear_start_is_optimal() -> Tuple[float, float]:
    """Numerically check Theorem 4.1 over T = 10 RTTs (τ = 1) to rate R = 1.

    Returns ``(linear_backlog, best_alternative_backlog)``; the theorem holds
    when the first is <= the second (within numeric tolerance).  The 25
    alternatives are seeded random monotone schedules through (0,0) and
    (T,R) built from convex combinations of power curves.
    """
    import random

    T, tau, R = 10.0, 1.0, 1.0
    rng = random.Random(7)

    def linear(t: float) -> float:
        return R * t / T

    best_alt = math.inf
    for _ in range(25):
        p1 = rng.uniform(0.3, 3.0)
        p2 = rng.uniform(0.3, 3.0)
        w = rng.random()

        def alt(t: float, p1=p1, p2=p2, w=w) -> float:
            x = t / T
            return R * (w * x**p1 + (1 - w) * x**p2)

        best_alt = min(best_alt, potential_backlog(alt, T, tau))
    return potential_backlog(linear, T, tau), best_alt


# ----------------------------------------------------------------------
# Appendix D — Swift fluctuation bound
# ----------------------------------------------------------------------
def swift_fluctuation_ns(
    n_flows: int,
    ai_bytes: float,
    line_rate_bps: float,
    target_ns: float,
) -> float:
    """Worst-case (synchronised) Swift delay fluctuation in ns.

    ``n·W_AI/R + max(n·β·W_AI/(R·T), max_mdf) · T``  (Appendix D), with
    Swift's own ``BETA`` and ``MAX_MDF``.
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    rate_byte_per_ns = line_rate_bps / 8e9
    above = n_flows * ai_bytes / rate_byte_per_ns
    below = max(n_flows * BETA * ai_bytes / (rate_byte_per_ns * target_ns), MAX_MDF) * target_ns
    return above + below


def channel_width_ns(fluctuation_ns: float, noise_ns: float) -> Tuple[float, float]:
    """(target gap, limit gap) per §4.3.2: A+B between targets, A/2+B to limit."""
    return fluctuation_ns + noise_ns, fluctuation_ns / 2.0 + noise_ns
