"""Figure 10: PrioPlus micro-benchmarks (§6.1).

* **10a** — eight virtual priorities, many flows each, staggered starts and
  stops at 100 Gbps: strict yield on arrival of higher priority (O1) and
  instant reclaim when it leaves (O2).  Driven by the generic staircase
  runner (shared with Fig 8).
* **10b** — 300-flow incast, one priority (D_target = base + 20 µs): the
  cardinality estimator keeps the observed delay pinned near D_target.
* **10c** — ten high-priority flows preempt ten low-priority flows; with
  dual-RTT adaptive increase the delay settles at D_target without
  overshoot, while an every-RTT ablation overreacts.
* **10d** — five same-priority flows under scaled delay noise: the channel
  width needed for ≥ 98 % utilisation grows linearly with the noise scale.
"""

from __future__ import annotations

import math
from typing import Dict

from ..cc import Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..noise import paper_noise
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .modes import Mode
from .registry import FunctionExperiment, register
from .samplers import DelaySampler, RateSampler
from .fig8_testbed import run_staircase


def _run_fig10a(
    n_priorities: int = 8,
    flows_per_prio: int = 30,
    rate: float = 100e9,
    stagger_ns: int = 5 * MILLISECOND,
    seed: int = 1,
) -> Dict[str, object]:
    """Eight-priority staircase at 100 Gbps."""
    return run_staircase(
        Mode.PRIOPLUS,
        priorities=tuple(range(1, n_priorities + 1)),
        rate=rate,
        stagger_ns=stagger_ns,
        flows_per_prio=flows_per_prio,
        seed=seed,
    )


def _run_fig10b(
    n_flows: int = 300,
    rate: float = 100e9,
    duration_ns: int = 4 * MILLISECOND,
    prio: int = 5,
    seed: int = 1,
) -> Dict[str, float]:
    """Incast: delay stays near D_target despite hundreds of flows."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=32 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=rate, link_delay_ns=1500, switch_cfg=cfg)
    channels = ChannelConfig(n_priorities=prio)
    size = int(rate * duration_ns / 8e9 / n_flows) + 50_000
    flows, snds = [], []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, size, priority=0, vpriority=prio, start_ns=0)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)),
            channels,
            vpriority=prio,
            tier=StartTier.MEDIUM,
            probe_first=False,
        )
        snds.append(FlowSender(sim, net, f, cc, noise=paper_noise()))
        flows.append(f)
    sampler = DelaySampler(sim, snds[0], interval_ns=20 * MICROSECOND)
    sim.run(until=duration_ns)
    base = snds[0].base_rtt
    d_target = channels.target_ns(prio, base)
    d_limit = channels.limit_ns(prio, base)
    settle = duration_ns // 3
    values = sampler.values(settle, duration_ns)
    mean = sum(values) / len(values)
    over = sum(1 for v in values if v > d_limit) / len(values)
    return {
        "mean_delay_us": mean / 1e3,
        "d_target_us": d_target / 1e3,
        "d_limit_us": d_limit / 1e3,
        "frac_above_limit": over,
        "mean_over_target_us": (mean - d_target) / 1e3,
        "nflow_estimate": max(getattr(s.cc, "nflow", 1.0) for s in snds),
    }


def _run_fig10c(
    dual_rtt: bool,
    n_each: int = 10,
    rate: float = 100e9,
    duration_ns: int = 3 * MILLISECOND,
    hi_start_ns: int = 1 * MILLISECOND,
    seed: int = 1,
) -> Dict[str, float]:
    """High-priority preemption with / without the dual-RTT guard."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=32 * 1024 * 1024)
    net, senders, recv = star(sim, 2 * n_each, rate_bps=rate, link_delay_ns=1500, switch_cfg=cfg)
    channels = ChannelConfig(n_priorities=4)
    lo_prio, hi_prio = 1, 4
    size = int(rate * duration_ns / 8e9 / n_each)
    snds = []
    for i in range(n_each):
        f = Flow(i + 1, senders[i], recv, size, priority=0, vpriority=lo_prio, start_ns=0)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=lo_prio,
            tier=StartTier.LOW, dual_rtt=dual_rtt,
        )
        snds.append(FlowSender(sim, net, f, cc))
    hi_snds = []
    for i in range(n_each):
        f = Flow(100 + i, senders[n_each + i], recv, size, priority=0, vpriority=hi_prio, start_ns=hi_start_ns)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=hi_prio,
            tier=StartTier.HIGH, dual_rtt=dual_rtt,
        )
        s = FlowSender(sim, net, f, cc)
        snds.append(s)
        hi_snds.append(s)
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.vpriority, interval_ns=20 * MICROSECOND)
    delay_sampler = DelaySampler(sim, hi_snds[0], interval_ns=5 * MICROSECOND)
    sim.run(until=duration_ns)
    base = hi_snds[0].base_rtt
    d_target_hi = channels.target_ns(hi_prio, base)
    # takeover time: hi aggregate rate >= 90% of line
    takeover = None
    for t, r in sampler.series.get(hi_prio, []):
        if t > hi_start_ns and r >= 0.9 * rate:
            takeover = (t - hi_start_ns) / 1e3
            break
    # overshoot: delay above D_target after takeover
    window = delay_sampler.values(hi_start_ns + 200 * MICROSECOND, duration_ns)
    max_over = max((v - d_target_hi) for v in window) / 1e3 if window else 0.0
    # oscillation: std of hi aggregate rate after takeover
    rates = [r for (t, r) in sampler.series.get(hi_prio, []) if t > hi_start_ns + 500 * MICROSECOND]
    mean_r = sum(rates) / len(rates) if rates else 0.0
    std_r = math.sqrt(sum((r - mean_r) ** 2 for r in rates) / len(rates)) if rates else 0.0
    return {
        "dual_rtt": dual_rtt,
        "takeover_us": takeover if takeover is not None else float("inf"),
        "max_delay_overshoot_us": max_over,
        "hi_rate_std_share": std_r / rate,
        "hi_rate_mean_share": mean_r / rate,
    }


def _run_fig10d(
    noise_scale: float = 1.0,
    n_flows: int = 5,
    rate: float = 100e9,
    duration_ns: int = 2 * MILLISECOND,
    util_goal: float = 0.99,
    seed: int = 1,
) -> Dict[float, float]:
    """Minimum channel-width noise budget B for >= util_goal utilisation.

    Returns {noise_scale: required_B_us}; the paper observes the requirement
    growing linearly with the noise magnitude.
    """
    for k in range(1, 65):  # 0.2 .. 12.8 us
        if _fig10d_util(noise_scale, 0.2 * k, n_flows, rate, duration_ns, seed) >= util_goal:
            return {noise_scale: 0.2 * k}
    return {noise_scale: float("inf")}


def _fig10d_util(
    noise_scale: float, b_us: float, n_flows: int, rate: float, duration_ns: int, seed: int
) -> float:
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=32 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=rate, link_delay_ns=1500, switch_cfg=cfg)
    prio = 3
    # A is set small so the D_limit margin is dominated by the noise budget B
    # under test (the CC fluctuation of a handful of flows is ~tens of ns).
    channels = ChannelConfig(fluctuation_ns=200, noise_ns=int(b_us * 1000), n_priorities=prio)
    noise = paper_noise(scale=noise_scale)
    size = int(rate * duration_ns / 8e9)  # long-running
    snds = []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, size, priority=0, vpriority=prio, start_ns=0)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=prio,
            tier=StartTier.MEDIUM, probe_first=False,
        )
        snds.append(FlowSender(sim, net, f, cc, noise=noise))
    sampler = RateSampler(sim, snds, key=lambda s: 0, interval_ns=50 * MICROSECOND)
    sim.run(until=duration_ns)
    settle = duration_ns // 4
    # normalise by achievable goodput (payload/wire ratio of the MTU)
    mtu = snds[0].mtu
    goodput_cap = rate * mtu / (mtu + 40)
    return sampler.average_rate_bps(0, settle, duration_ns) / goodput_cap


def _merge_fig10d(results: Dict[str, dict]) -> Dict[str, float]:
    """Merge per-scale single-entry dicts; keys become strings either way
    (float keys stringify identically through JSON and ``str``)."""
    merged: Dict[str, float] = {}
    for res in results.values():
        for k, v in res.items():
            merged[str(k)] = v
    return merged


register(
    FunctionExperiment(
        "fig10a",
        {"fig10a": (_run_fig10a, {"seed": 1})},
        description="eight-priority staircase at 100 Gbps (O1/O2)",
        quick_spec={"fig10a": (_run_fig10a, dict(
            n_priorities=4, flows_per_prio=5, rate=25e9, stagger_ns=1 * MILLISECOND, seed=1
        ))},
    )
)
register(
    FunctionExperiment(
        "fig10b",
        {"fig10b": (_run_fig10b, {"seed": 1})},
        description="300-flow incast: delay pinned near D_target",
        quick_spec={"fig10b": (_run_fig10b, dict(
            n_flows=60, rate=25e9, duration_ns=3 * MILLISECOND, seed=1
        ))},
    )
)
_FIG10C_QUICK = dict(n_each=5, rate=25e9, duration_ns=2 * MILLISECOND, hi_start_ns=700_000, seed=1)
register(
    FunctionExperiment(
        "fig10c",
        {
            "dual_rtt": (_run_fig10c, {"dual_rtt": True, "seed": 1}),
            "every_rtt": (_run_fig10c, {"dual_rtt": False, "seed": 1}),
        },
        description="high-priority preemption with vs without the dual-RTT guard",
        quick_spec={
            "dual_rtt": (_run_fig10c, dict(_FIG10C_QUICK, dual_rtt=True)),
            "every_rtt": (_run_fig10c, dict(_FIG10C_QUICK, dual_rtt=False)),
        },
    )
)
register(
    FunctionExperiment(
        "fig10d",
        {f"scale{_s:g}": (_run_fig10d, {"noise_scale": _s, "seed": 1}) for _s in (1.0, 2.0, 4.0, 8.0)},
        description="channel-width noise budget vs noise scale",
        reduce_fn=_merge_fig10d,
        quick_spec={
            f"scale{_s:g}": (
                _run_fig10d,
                dict(noise_scale=_s, n_flows=3, rate=25e9, duration_ns=1_500_000, seed=1),
            )
            for _s in (1.0, 4.0, 8.0)
        },
    )
)
