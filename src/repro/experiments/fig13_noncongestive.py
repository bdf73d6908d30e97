"""Figure 13: operating under non-congestive delay variation (§6.3).

The Fig 8 staircase is replayed with an extra *uniform* delay component of
range ``V`` injected into every measurement, while PrioPlus's channel noise
tolerance ``B`` is set to 10/20/30 µs.  The metric is the paper's
*Normalised FCT Gap*: mean over flows of |FCT_PrioPlus − FCT_Physical| /
FCT_Physical, where Physical is Swift on ideal physical queues over the same
staircase workload.

Paper shape: the gap stays flat until the non-congestive range exceeds the
configured tolerance (within a few µs), then grows — tolerances of 10/20/30
µs first degrade at ranges 14/24/32 µs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..cc import Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..noise import CompositeNoise, UniformNoise, paper_noise
from ..sim.engine import Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import FunctionExperiment, register

__all__ = ["staircase_fcts", "fig13_gaps", "fig13_spec"]

_PRIORITIES = (1, 2, 3, 4)


def staircase_fcts(
    use_prioplus: bool,
    tolerance_us: float,
    noncongestive_range_us: float,
    rate: float,
    stagger_ns: int,
    seed: int,
) -> Dict[str, List[int]]:
    """FCTs of the Fig 8-style staircase under extra uniform delay."""
    sim = Simulator(seed)
    n_prios = len(_PRIORITIES)
    flows_per_prio = 2
    if use_prioplus:
        cfg = SwitchConfig(n_queues=2, buffer_bytes=16 * 1024 * 1024)
    else:
        cfg = SwitchConfig(n_queues=n_prios + 1, buffer_bytes=16 * 1024 * 1024, ideal_headroom=True)
    net, senders, recv = star(
        sim, n_prios * flows_per_prio, rate_bps=rate, link_delay_ns=1500, switch_cfg=cfg
    )
    channels = ChannelConfig(
        fluctuation_ns=3200, noise_ns=int(tolerance_us * 1000), n_priorities=max(_PRIORITIES)
    )
    noise = CompositeNoise(paper_noise(), UniformNoise(int(noncongestive_range_us * 1000)))

    flows: List[Flow] = []
    fid = 1
    for rank, prio in enumerate(_PRIORITIES):
        start = rank * stagger_ns
        size = int(rate * 2 * stagger_ns / 8e9 / flows_per_prio)
        for j in range(flows_per_prio):
            host = senders[rank * flows_per_prio + j]
            f = Flow(
                fid,
                host,
                recv,
                size,
                priority=0 if use_prioplus else prio,
                vpriority=prio,
                start_ns=start,
            )
            fid += 1
            if use_prioplus:
                cc = PrioPlusCC(
                    Swift(SwiftParams(target_scaling=False)),
                    channels,
                    vpriority=prio,
                    tier=StartTier.MEDIUM,
                )
            else:
                cc = Swift(SwiftParams())
            FlowSender(sim, net, f, cc, noise=noise)
            flows.append(f)
    total = 2 * n_prios * stagger_ns
    sim.run(until=total * 6)
    return {"fcts": [f.fct_ns() if f.done else total * 6 for f in flows]}


def fig13_gaps(results: Mapping[str, dict]) -> Dict[str, float]:
    """Pair each range's two stacks back up into ``{"gap@<range>us": gap}``."""
    out: Dict[str, float] = {}
    for pname, res in results.items():
        kind, _, rng = pname.partition("@")
        if kind != "prioplus":
            continue
        ph = results[f"physical@{rng}"]["fcts"]
        gaps = [abs(a - b) / b for a, b in zip(res["fcts"], ph)]
        out[f"gap@{rng}"] = sum(gaps) / len(gaps)
    return out


def fig13_spec() -> Dict[str, tuple]:
    """Normalised FCT gap at a 10 us tolerance, sharded per (stack,
    non-congestive range of 6 or 40 us).

    Each gap hides two full staircase simulations (PrioPlus and the physical
    baseline); as separate points the runner schedules all of them
    concurrently, and :func:`fig13_gaps` pairs them back up.
    """
    return {
        f"{kind}@{rng:g}us": (
            staircase_fcts,
            {
                "use_prioplus": use_prioplus,
                "tolerance_us": 10.0,
                "noncongestive_range_us": rng,
                "rate": 10e9,
                "stagger_ns": 500_000,
                "seed": 1,
            },
        )
        for rng in (6.0, 40.0)
        for kind, use_prioplus in (("prioplus", True), ("physical", False))
    }


register(
    FunctionExperiment(
        "fig13",
        fig13_spec(),
        description="FCT gap vs non-congestive delay range (tolerance 10 us)",
        reduce_fn=fig13_gaps,
    )
)
