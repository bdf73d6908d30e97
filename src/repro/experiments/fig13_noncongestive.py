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

from typing import Dict, List, Sequence

from ..cc import Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..noise import CompositeNoise, UniformNoise, paper_noise
from ..sim.engine import MILLISECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import Experiment, Point, register

__all__ = ["run_fig13_point"]

_PRIORITIES = (1, 2, 3, 4)


def _staircase_fcts(
    use_prioplus: bool,
    tolerance_us: float,
    noncongestive_range_us: float,
    rate: float,
    stagger_ns: int,
    seed: int,
) -> List[int]:
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
    return [f.fct_ns() if f.done else total * 6 for f in flows]


def run_fig13_point(
    tolerance_us: float,
    noncongestive_range_us: float,
    rate: float = 10e9,
    stagger_ns: int = 1 * MILLISECOND,
    seed: int = 1,
) -> float:
    """Normalised FCT gap for one (tolerance, range) point."""
    pp = _staircase_fcts(True, tolerance_us, noncongestive_range_us, rate, stagger_ns, seed)
    ph = _staircase_fcts(False, tolerance_us, noncongestive_range_us, rate, stagger_ns, seed)
    gaps = [abs(a - b) / b for a, b in zip(pp, ph)]
    return sum(gaps) / len(gaps)


class Fig13Experiment(Experiment):
    """Normalised FCT gap, sharded per (stack, non-congestive range).

    Each ``run_fig13_point`` call hides two full staircase simulations
    (PrioPlus and the physical baseline); splitting them into separate points
    lets the runner schedule all four simulations concurrently.  ``reduce``
    pairs them back up into the legacy ``{"gap@<range>us": gap}`` dict.
    """

    name = "fig13"
    description = "FCT gap vs non-congestive delay range (tolerance 10 us)"

    def __init__(
        self,
        tolerance_us: float = 10.0,
        ranges_us: Sequence[float] = (6.0, 40.0),
        rate: float = 10e9,
        stagger_ns: int = 500_000,
        seed: int = 1,
    ):
        self.tolerance_us = float(tolerance_us)
        self.ranges_us = tuple(float(r) for r in ranges_us)
        self.rate = rate
        self.stagger_ns = stagger_ns
        self.seed = seed

    def points(self) -> List[Point]:
        pts = []
        for rng in self.ranges_us:
            for kind, use_prioplus in (("prioplus", True), ("physical", False)):
                pts.append(
                    Point(
                        f"{kind}@{rng:g}us",
                        {
                            "use_prioplus": use_prioplus,
                            "tolerance_us": self.tolerance_us,
                            "noncongestive_range_us": rng,
                            "rate": self.rate,
                            "stagger_ns": self.stagger_ns,
                            "seed": self.seed,
                        },
                        seed=self.seed,
                    )
                )
        return pts

    def run_point(self, point: Point) -> dict:
        c = point.config
        fcts = _staircase_fcts(
            c["use_prioplus"],
            c["tolerance_us"],
            c["noncongestive_range_us"],
            c["rate"],
            c["stagger_ns"],
            c["seed"],
        )
        return {"fcts": fcts}

    def reduce(self, results: Dict[str, dict]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for rng in self.ranges_us:
            pp = results[f"prioplus@{rng:g}us"]["fcts"]
            ph = results[f"physical@{rng:g}us"]["fcts"]
            gaps = [abs(a - b) / b for a, b in zip(pp, ph)]
            out[f"gap@{rng:g}us"] = sum(gaps) / len(gaps)
        return out


register(Fig13Experiment())
