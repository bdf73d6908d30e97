"""Quickstart scenario as a CLI-runnable experiment.

Mirrors ``examples/quickstart.py``: two flows share one physical switch queue
on a 10 Gbps bottleneck; a large low-priority transfer starts first, a small
high-priority transfer arrives mid-way and preempts the bandwidth via
PrioPlus channels.  Small and fast, which makes it the canonical scenario for
exercising the observability layer::

    python -m repro quickstart --trace /tmp/quickstart.json
    # then open /tmp/quickstart.json in ui.perfetto.dev
"""

from __future__ import annotations

from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..cc import Swift, SwiftParams
from ..sim.engine import Simulator
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import FunctionExperiment, register

__all__ = ["run_quickstart"]


def _prioplus(channels: ChannelConfig, vpriority: int, tier: str) -> PrioPlusCC:
    return PrioPlusCC(
        Swift(SwiftParams(target_scaling=False)), channels, vpriority=vpriority, tier=tier
    )


def run_quickstart(low_bytes: int = 2_000_000, high_bytes: int = 500_000, seed: int = 1) -> dict:
    """Two-flow virtual-priority demo over 10 Gbps with 1.5 us links, the
    high flow starting at 300 us; returns per-flow FCTs and slowdowns."""
    rate_bps = 10e9
    sim = Simulator(seed=seed)
    net, senders, receiver = star(sim, n_senders=2, rate_bps=rate_bps, link_delay_ns=1500)
    channels = ChannelConfig(n_priorities=8)

    low = Flow(1, senders[0], receiver, size_bytes=low_bytes, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], receiver, size_bytes=high_bytes, vpriority=6, start_ns=300_000)

    FlowSender(sim, net, low, _prioplus(channels, 1, StartTier.LOW))
    s_high = FlowSender(sim, net, high, _prioplus(channels, 6, StartTier.HIGH))

    sim.run(until=50_000_000)

    ideal_high = high.size_bytes * 8e9 / rate_bps + s_high.base_rtt
    return {
        "high_fct_ns": high.fct_ns() if high.done else None,
        "low_fct_ns": low.fct_ns() if low.done else None,
        "high_fct_over_ideal": (high.fct_ns() / ideal_high) if high.done else None,
        "low_probes_sent": low.probes_sent,
        "all_done": low.done and high.done,
    }


register(
    FunctionExperiment(
        "quickstart",
        {"quickstart": (run_quickstart, {"seed": 1})},
        description="two-flow virtual-priority demo (canonical telemetry scenario)",
    )
)
