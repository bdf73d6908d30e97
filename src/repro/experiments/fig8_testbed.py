"""Figure 8: the DPDK-testbed experiment, reproduced in simulation.

Four adjacent priorities (3, 4, 5, 6), two flows each, on a 10 Gbps tree
(RTT ≈ 13 µs).  Flows start lowest-priority-first at fixed intervals and
stop in the same order, so the active highest priority changes every
interval.  The paper shows PrioPlus+Swift yields bandwidth immediately when
a higher priority appears (O1) and reclaims it immediately when it leaves
(O2), while Swift with per-priority targets takes ~2-3 ms for both.

The runner reports, per transition, the time for the newly-dominant
priority to reach 80 % of the bottleneck and the average share the dominant
priority held during its reign.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..cc import Swift, SwiftParams
from ..noise import paper_noise
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .modes import Mode
from .registry import FunctionExperiment, register
from .samplers import RateSampler

__all__ = ["run_staircase"]

_PRIORITIES = (3, 4, 5, 6)


def _run_fig8(
    mode: str = Mode.PRIOPLUS, stagger_ns: int = 4 * MILLISECOND, seed: int = 1
) -> Dict[str, object]:
    """The testbed staircase with priorities 3-6 (Fig 8), two flows each."""
    return run_staircase(
        mode, priorities=_PRIORITIES, rate=10e9, stagger_ns=stagger_ns, flows_per_prio=2, seed=seed
    )


def run_staircase(
    mode: str,
    priorities=_PRIORITIES,
    rate: float = 10e9,
    stagger_ns: int = 4 * MILLISECOND,
    flows_per_prio: int = 2,
    seed: int = 1,
) -> Dict[str, object]:
    """Staggered start/stop staircase over an arbitrary priority ladder,
    under the paper's delay noise.

    Also drives Fig 10a (8 priorities x 30 flows at 100 Gbps).
    Returns per-priority takeover/reclaim latencies and leak shares.
    """
    _PRIORITIES = tuple(priorities)
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    n_senders = len(_PRIORITIES) * flows_per_prio
    net, senders, recv = star(sim, n_senders, rate_bps=rate, link_delay_ns=1500, switch_cfg=cfg)
    channels = ChannelConfig(n_priorities=max(_PRIORITIES))
    noise = paper_noise()

    n_prios = len(_PRIORITIES)
    total_time = (2 * n_prios) * stagger_ns
    flows: List[Flow] = []
    snds = []
    fid = 1
    for rank, prio in enumerate(_PRIORITIES):
        start = rank * stagger_ns
        # Each priority dominates the bottleneck for exactly two stagger
        # intervals (once on the way up, once on the way down), so sizing
        # flows to that income makes them finish at the staggered end times.
        size = int(rate * 2 * stagger_ns / 8e9 / flows_per_prio)
        for j in range(flows_per_prio):
            host = senders[rank * flows_per_prio + j]
            f = Flow(fid, host, recv, size, priority=0, vpriority=prio, start_ns=start, tag=prio)
            fid += 1
            if mode == Mode.PRIOPLUS:
                cc = PrioPlusCC(
                    Swift(SwiftParams(target_scaling=False)),
                    channels,
                    vpriority=prio,
                    tier=StartTier.MEDIUM,
                )
            elif mode == Mode.SWIFT_TARGETS:
                cc = Swift(
                    SwiftParams(
                        base_target_ns=channels.target_offset_ns(prio),
                        target_scaling=False,
                    )
                )
            else:
                raise ValueError(f"fig8 compares prioplus vs swift_targets, got {mode}")
            snds.append(FlowSender(sim, net, f, cc, noise=noise))
            flows.append(f)

    interval = min(100 * MICROSECOND, max(stagger_ns // 40, 10 * MICROSECOND))
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.tag, interval_ns=interval)
    sim.run(until=3 * total_time)

    def first_time_above(prio: int, t0: int) -> Optional[int]:
        for t, r in sampler.series.get(prio, []):
            if t > t0 and r >= 0.8 * rate:
                return t
        return None

    done_of = {
        prio: max(f.completion_ns or (1 << 62) for f in flows if f.tag == prio)
        for prio in _PRIORITIES
    }

    # O1: while priority rank r is the highest active (between its start and
    # the next priority's start), lower priorities should hold ~no bandwidth.
    leak_shares: List[float] = []
    takeover_us: List[float] = []
    for rank, prio in enumerate(_PRIORITIES):
        t0 = rank * stagger_ns
        t1 = (rank + 1) * stagger_ns
        took = first_time_above(prio, t0)
        takeover_us.append(((took - t0) / 1e3) if took is not None else float("inf"))
        settle = t0 + (t1 - t0) // 4
        lower = sum(
            sampler.average_rate_bps(p, settle, t1) for p in _PRIORITIES[:rank]
        )
        leak_shares.append(lower / rate)

    # O2: when all strictly-higher priorities have finished, how fast does
    # this priority reclaim the full line (measured from the *actual* finish)?
    reclaim_us: List[float] = []
    for rank, prio in enumerate(_PRIORITIES[:-1]):
        higher_done = max(done_of[p] for p in _PRIORITIES[rank + 1 :])
        if higher_done >= (1 << 62):
            reclaim_us.append(float("inf"))
            continue
        took = first_time_above(prio, higher_done)
        reclaim_us.append(((took - higher_done) / 1e3) if took is not None else float("inf"))

    last_done = max(done_of.values())
    util = sum(f.size_bytes for f in flows) * 8e9 / (rate * last_done)
    return {
        "mode": mode,
        "takeover_us": takeover_us,
        "max_leak_share": max(leak_shares),
        "reclaim_us": reclaim_us,
        "max_reclaim_us": max(reclaim_us),
        "completion_lag": last_done / total_time,
        "utilization": util,
        "drops": net.total_drops(),
    }


register(
    FunctionExperiment(
        "fig8",
        {
            "prioplus": (_run_fig8, {"mode": Mode.PRIOPLUS, "stagger_ns": 2 * MILLISECOND, "seed": 1}),
            "swift_targets": (
                _run_fig8,
                {"mode": Mode.SWIFT_TARGETS, "stagger_ns": 2 * MILLISECOND, "seed": 1},
            ),
        },
        description="testbed staircase: takeover/reclaim latency, PrioPlus vs Swift targets",
    )
)
