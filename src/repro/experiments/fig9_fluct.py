"""Figure 9: delay-fluctuation management via flow-cardinality estimation.

Four flows on a 10 Gbps bottleneck with deliberately inflated step sizes to
emulate the fluctuations of numerous flows: Swift's W_AI is set to ~5x the
recommended value, and PrioPlus's W_LS to half the base BDP.  PrioPlus flows
use priority 6 (D_target 37 µs absolute in the testbed, D_limit +2.4 µs);
Swift uses target delay 37 µs.  The paper shows PrioPlus estimating the flow
cardinality after the first D_limit crossing and then keeping the observed
delay near target, while Swift keeps overshooting.

Metric: fraction of delay samples within the channel after convergence and
the standard deviation of delay.
"""

from __future__ import annotations

import math
from typing import Dict

from ..cc import Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .modes import Mode
from .registry import FunctionExperiment, register
from .samplers import DelaySampler


def _run_fig9(
    mode: str = Mode.PRIOPLUS,
    n_flows: int = 4,
    rate: float = 10e9,
    duration_ns: int = 10 * MILLISECOND,
    w_ai_bytes: float = 750.0,
    seed: int = 1,
) -> Dict[str, float]:
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=rate, link_delay_ns=1500, switch_cfg=cfg)
    channels = ChannelConfig(n_priorities=6)
    prio = 6

    size = int(rate * duration_ns / 8e9)
    flows, snds = [], []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, size, priority=0, vpriority=prio, start_ns=0)
        if mode == Mode.PRIOPLUS:
            inner = Swift(SwiftParams(ai_bytes=w_ai_bytes, target_scaling=False))
            bdp = rate * 13 * MICROSECOND / 8e9  # ~base BDP at this scale
            cc = PrioPlusCC(
                inner,
                channels,
                vpriority=prio,
                tier=StartTier.MEDIUM,
                w_ls_bytes=bdp / 2,
                probe_first=False,
            )
        elif mode == Mode.SWIFT_TARGETS:
            cc = Swift(
                SwiftParams(
                    base_target_ns=channels.target_offset_ns(prio),
                    ai_bytes=w_ai_bytes,
                    target_scaling=False,
                )
            )
        else:
            raise ValueError(f"fig9 compares prioplus vs swift_targets, got {mode}")
        snds.append(FlowSender(sim, net, f, cc))
        flows.append(f)

    sampler = DelaySampler(sim, snds[0], interval_ns=20 * MICROSECOND)
    sim.run(until=duration_ns)

    base_rtt = snds[0].base_rtt
    d_target = channels.target_ns(prio, base_rtt)
    d_limit = channels.limit_ns(prio, base_rtt)
    settle = duration_ns // 3
    values = sampler.values(settle, duration_ns)
    if not values:
        raise RuntimeError("no delay samples collected")
    within = sum(1 for v in values if v <= d_limit) / len(values)
    mean = sum(values) / len(values)
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    return {
        "mode": mode,
        "frac_below_limit": within,
        "mean_delay_us": mean / 1e3,
        "std_delay_us": std / 1e3,
        "d_target_us": d_target / 1e3,
        "d_limit_us": d_limit / 1e3,
    }


register(
    FunctionExperiment(
        "fig9",
        {
            "prioplus": (_run_fig9, {"mode": Mode.PRIOPLUS, "seed": 1}),
            "swift_targets": (_run_fig9, {"mode": Mode.SWIFT_TARGETS, "seed": 1}),
        },
        description="delay-fluctuation management via flow-cardinality estimation",
        quick_spec={
            m: (_run_fig9, {"mode": m, "duration_ns": 6 * MILLISECOND, "seed": 1})
            for m in (Mode.PRIOPLUS, Mode.SWIFT_TARGETS)
        },
    )
)
