"""Ablations of PrioPlus's design choices (§4.2, §4.3).

Each knob the paper motivates gets an on/off comparison:

* **probe collision avoidance** (§4.2.1) — when a high-priority burst ends,
  do the parked low-priority flows stampede back?
* **noise filter** (§4.3.1) — how often does measurement noise trigger a
  spurious relinquish with/without the two-consecutive-samples rule?
* **cardinality estimation** (§4.3.1) — does a heavy incast stay inside the
  channel without it?  (The dual-RTT ablation lives in Fig 10c.)
"""

from __future__ import annotations

from typing import Dict

from ..cc import Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..noise import LognormalNoise
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import FunctionExperiment, register
from .samplers import DelaySampler, RateSampler

__all__ = [
    "run_collision_avoidance_ablation",
    "run_filter_ablation",
    "run_cardinality_ablation",
]


def run_collision_avoidance_ablation(
    collision_avoidance: bool,
    n_low: int = 16,
    rate: float = 25e9,
    duration_ns: int = 3 * MILLISECOND,
    seed: int = 3,
) -> Dict[str, float]:
    """Low flows parked by a high burst; measure the restart stampede.

    Reports the peak delay overshoot (µs above the lows' D_limit) within the
    window after the high flow finishes, and the number of re-relinquishes
    the stampede causes.
    """
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=16 * 1024 * 1024)
    net, senders, recv = star(sim, n_low + 1, rate_bps=rate, link_delay_ns=1000, switch_cfg=cfg)
    channels = ChannelConfig(n_priorities=4)
    lo, hi = 1, 4
    size = int(rate * duration_ns / 8e9 / n_low)
    lows = []
    for i in range(n_low):
        f = Flow(i + 1, senders[i], recv, size, vpriority=lo, start_ns=0)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)),
            channels,
            vpriority=lo,
            tier=StartTier.LOW,
            collision_avoidance=collision_avoidance,
        )
        lows.append(FlowSender(sim, net, f, cc))
    hi_size = int(rate * 800 * MICROSECOND / 8e9)
    f_hi = Flow(100, senders[n_low], recv, hi_size, vpriority=hi, start_ns=300 * MICROSECOND)
    FlowSender(
        sim,
        net,
        f_hi,
        PrioPlusCC(Swift(SwiftParams(target_scaling=False)), channels, vpriority=hi, tier=StartTier.HIGH),
    )
    sampler = DelaySampler(sim, lows[0], interval_ns=5 * MICROSECOND)
    sim.run(until=duration_ns)
    hi_done = f_hi.completion_ns or duration_ns
    base = lows[0].base_rtt
    d_limit_lo = channels.limit_ns(lo, base)
    window = sampler.values(hi_done, min(hi_done + 300 * MICROSECOND, duration_ns))
    overshoot = max((v - d_limit_lo for v in window), default=0) / 1e3
    re_relinq = sum(s.cc.relinquish_count for s in lows)
    return {
        "collision_avoidance": collision_avoidance,
        "restart_overshoot_us": max(overshoot, 0.0),
        "total_relinquishes": re_relinq,
        "total_probes": sum(s.flow.probes_sent for s in lows),
    }


def run_filter_ablation(
    filter_consecutive: int, duration_ns: int = 3 * MILLISECOND, seed: int = 5
) -> Dict[str, float]:
    """Single flow at 10 Gbps under heavy noise (500 ns median): count
    spurious relinquishes."""
    rate = 10e9
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 1, rate_bps=rate, link_delay_ns=1000, switch_cfg=cfg)
    # narrow channel so the noise tail reaches D_limit
    channels = ChannelConfig(fluctuation_ns=1200, noise_ns=300, n_priorities=4)
    f = Flow(1, senders[0], recv, int(rate * duration_ns / 8e9), vpriority=2, start_ns=0)
    cc = PrioPlusCC(
        Swift(SwiftParams(target_scaling=False)),
        channels,
        vpriority=2,
        tier=StartTier.MEDIUM,
        probe_first=False,
        filter_consecutive=filter_consecutive,
    )
    snd = FlowSender(sim, net, f, cc, noise=LognormalNoise(median_ns=500, sigma=0.5))
    sampler = RateSampler(sim, [snd], key=lambda s: 0, interval_ns=100 * MICROSECOND)
    sim.run(until=duration_ns)
    util = sampler.average_rate_bps(0, duration_ns // 4, duration_ns) / rate
    return {
        "filter_consecutive": filter_consecutive,
        "relinquishes": cc.relinquish_count,
        "utilization": util,
    }


def run_cardinality_ablation(
    cardinality_estimation: bool,
    n_flows: int = 40,
    rate: float = 25e9,
    duration_ns: int = 2 * MILLISECOND,
    seed: int = 4,
) -> Dict[str, float]:
    """Incast with/without the estimator: fraction of samples over D_limit."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=32 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=rate, link_delay_ns=1000, switch_cfg=cfg)
    prio = 4
    channels = ChannelConfig(n_priorities=prio)
    size = int(rate * duration_ns / 8e9 / n_flows) + 20_000
    snds = []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, size, vpriority=prio, start_ns=0)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)),
            channels,
            vpriority=prio,
            tier=StartTier.MEDIUM,
            probe_first=False,
            cardinality_estimation=cardinality_estimation,
        )
        snds.append(FlowSender(sim, net, f, cc))
    sampler = DelaySampler(sim, snds[0], interval_ns=10 * MICROSECOND)
    sim.run(until=duration_ns)
    base = snds[0].base_rtt
    d_limit = channels.limit_ns(prio, base)
    values = sampler.values(duration_ns // 4, duration_ns)
    over = sum(1 for v in values if v > d_limit) / max(len(values), 1)
    return {
        "cardinality_estimation": cardinality_estimation,
        "frac_above_limit": over,
        "max_nflow": max(s.cc.nflow for s in snds),
        "relinquishes": sum(s.cc.relinquish_count for s in snds),
    }


def _reduce_ablations(results: Dict[str, dict]) -> Dict[str, list]:
    """Regroup the six ablation points into the legacy on/off-pair layout."""
    return {
        "collision_avoidance": [results["collision_on"], results["collision_off"]],
        "filter": [results["filter_2"], results["filter_1"]],
        "cardinality": [results["cardinality_on"], results["cardinality_off"]],
    }


register(
    FunctionExperiment(
        "ablations",
        {
            "collision_on": (run_collision_avoidance_ablation, {"collision_avoidance": True, "seed": 3}),
            "collision_off": (run_collision_avoidance_ablation, {"collision_avoidance": False, "seed": 3}),
            "filter_2": (run_filter_ablation, {"filter_consecutive": 2, "seed": 5}),
            "filter_1": (run_filter_ablation, {"filter_consecutive": 1, "seed": 5}),
            "cardinality_on": (run_cardinality_ablation, {"cardinality_estimation": True, "seed": 4}),
            "cardinality_off": (run_cardinality_ablation, {"cardinality_estimation": False, "seed": 4}),
        },
        description="design-knob on/off ablations (collision avoidance, filter, cardinality)",
        reduce_fn=_reduce_ablations,
    )
)
