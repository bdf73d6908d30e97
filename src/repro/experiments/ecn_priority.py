"""Appendix B prototype: virtual priority for ECN-based CCs.

DCTCP flows share one queue; the switch marks by *per-priority thresholds*
(lower priority = smaller threshold).  Compared against uniform marking,
the high-priority flow should keep most of the bandwidth while the low
priority backs off — an approximation of PrioPlus's strict channels that
costs a switch change instead of a host change.
"""

from __future__ import annotations

from typing import Dict

from ..cc import Dctcp
from ..core.ecn_extension import EcnPriorityConfig, install_priority_marking
from ..sim.engine import MILLISECOND, MICROSECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import FunctionExperiment, register
from .samplers import RateSampler

__all__ = ["run_ecn_priority"]


def run_ecn_priority(per_priority_marking: bool, seed: int = 6) -> Dict[str, float]:
    """Two DCTCP flows (vpriority 6 vs 1) on one 10 Gbps queue for 3 ms,
    marked at 60 KB (per priority: 60 KB for the top one); share of the
    high flow."""
    rate, duration_ns, k_top_bytes = 10e9, 3 * MILLISECOND, 60_000
    sim = Simulator(seed)
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=16 * 1024 * 1024,
        ecn_k_bytes=k_top_bytes if not per_priority_marking else None,
    )
    net, senders, recv = star(sim, 2, rate_bps=rate, link_delay_ns=1000, switch_cfg=cfg)
    if per_priority_marking:
        install_priority_marking(net, EcnPriorityConfig(k_top_bytes=k_top_bytes, ratio=0.35, n_priorities=8))

    size = int(rate * duration_ns / 8e9)
    f_hi = Flow(1, senders[0], recv, size, vpriority=6, start_ns=0, tag="hi")
    f_lo = Flow(2, senders[1], recv, size, vpriority=1, start_ns=0, tag="lo")
    s_hi = FlowSender(sim, net, f_hi, Dctcp())
    s_lo = FlowSender(sim, net, f_lo, Dctcp())
    sampler = RateSampler(sim, [s_hi, s_lo], key=lambda s: s.flow.tag, interval_ns=100 * MICROSECOND)
    sim.run(until=duration_ns)
    settle = duration_ns // 3
    hi = sampler.average_rate_bps("hi", settle, duration_ns)
    lo = sampler.average_rate_bps("lo", settle, duration_ns)
    return {
        "per_priority_marking": per_priority_marking,
        "hi_share": hi / rate,
        "lo_share": lo / rate,
        "utilization": (hi + lo) / rate,
    }


register(
    FunctionExperiment(
        "ecn-priority",
        {
            "uniform": (run_ecn_priority, {"per_priority_marking": False, "seed": 6}),
            "per_priority": (run_ecn_priority, {"per_priority_marking": True, "seed": 6}),
        },
        description="virtual priority for ECN CCs: per-priority vs uniform marking",
    )
)
