"""Fig 11's physical-degradation arm, isolated: headroom vs shared buffer.

The paper's Fig 11a shows real physical priority collapsing beyond ~6
queues: every lossless priority reserves PFC headroom on every port, the
shared pool shrinks, the dynamic ingress threshold drops, and PFC fires
earlier and more often — small flows pay the pauses.

The fat-tree CI runs don't pressure the buffer enough to show this, so this
experiment isolates it: an incast-heavy workload on one switch whose chip
buffer follows the Tomahawk4 4.4 MB/Tbps ratio, swept over the number of
lossless priorities.  PrioPlus needs only 2 queues regardless, so its line
is flat by construction; the measurement of interest is how the *physical*
configuration degrades as the priority count grows.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..analysis.fct import percentile
from ..noise import paper_noise
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.pfc import PfcConfig
from ..sim.switch import SwitchConfig
from ..topology import star
from .flowsched import grid_rows
from .launch import launch_specs, run_until_flows_done
from .modes import CCFactory, Mode
from .registry import FunctionExperiment, register
from ..workloads import FlowSpec

__all__ = ["run_headroom_point"]


def _workload(rng: random.Random, n_senders: int, duration_ns: int, rate: float) -> List[FlowSpec]:
    """Incast waves of small flows plus a few large background flows."""
    specs: List[FlowSpec] = []
    t = 0
    wave = 0
    while t < duration_ns:
        for i in range(n_senders):
            size = rng.choice((20_000, 30_000, 50_000))
            specs.append(FlowSpec(i, n_senders, size, t, tag=("wave", wave)))
        t += 200 * MICROSECOND
        wave += 1
    for i in range(0, n_senders, 4):
        specs.append(FlowSpec(i, n_senders, int(rate * duration_ns / 8e9 / 8), 0, tag="bg"))
    return specs


def run_headroom_point(
    mode: str,
    n_priorities: int,
    n_senders: int = 16,
    duration_ns: int = 2 * MILLISECOND,
    buffer_mb_per_tbps: float = 4.4,
    headroom_bytes: int = 8_000,
    seed: int = 13,
) -> Dict[str, float]:
    """One (mode, priority-count) point of the sweep, at 25 Gbps."""
    rate = 25e9
    sim = Simulator(seed)
    factory = CCFactory(mode, n_priorities=n_priorities)
    n_ports = n_senders + 1
    buffer_bytes = max(int(buffer_mb_per_tbps * 1024 * 1024 * (n_ports * rate / 1e12)), 128 * 1024)
    switch_cfg = SwitchConfig(
        n_queues=factory.n_queues(),
        buffer_bytes=buffer_bytes,
        headroom_per_port_per_prio=headroom_bytes,
        n_lossless=factory.n_queues(),
        ideal_headroom=factory.switch_config().ideal_headroom,
        # Xoff sized to the per-priority headroom, as in real lossless configs
        pfc=PfcConfig(enabled=True, xoff_bytes=headroom_bytes),
    )
    net, senders, recv = star(sim, n_senders, rate_bps=rate, link_delay_ns=1000, switch_cfg=switch_cfg)
    hosts = senders + [recv]
    rng = random.Random(seed)
    specs = _workload(rng, n_senders, duration_ns, rate)

    def group_of(spec) -> int:
        if spec.tag == "bg":
            return n_priorities - 1
        # the wave index, not hash(tag): str hashing is salted per process
        return spec.tag[1] % max(1, n_priorities - 1)

    flows, _ = launch_specs(sim, net, specs, hosts, factory, group_of, noise=paper_noise())
    run_until_flows_done(sim, flows, duration_ns * 40)
    sw = net.switches[0]
    small = [f.fct_ns() for f in flows if f.done and f.tag != "bg"]
    return {
        "mode": mode,
        "n_priorities": n_priorities,
        "shared_pool_bytes": sw.buffer.shared_capacity,
        "pfc_pauses": float(net.total_pfc_pauses()),
        "drops": float(net.total_drops()),
        "small_mean_us": sum(small) / len(small) / 1e3 if small else float("nan"),
        "small_p99_us": percentile(small, 99) / 1e3 if small else float("nan"),
        "done": float(sum(1 for f in flows if f.done)),
        "total": float(len(flows)),
    }


#: the sweep's shared knobs: a buffer small enough that headroom bites
_POINT_KWARGS = {
    "n_senders": 32,
    "buffer_mb_per_tbps": 2.0,
    "headroom_bytes": 12_000,
    "duration_ns": 2_000_000,
    "seed": 13,
}

register(
    FunctionExperiment(
        "headroom",
        # the flat PrioPlus reference first, then Physical at each
        # lossless-priority count
        {
            f"{mode}@{n}": (run_headroom_point, {"mode": mode, "n_priorities": n, **_POINT_KWARGS})
            for mode, n in [(Mode.PRIOPLUS, 8)] + [(Mode.PHYSICAL, n) for n in (2, 4, 6, 8)]
        },
        description="PFC headroom vs shared buffer: physical degradation sweep",
        reduce_fn=grid_rows,
    )
)
