"""Table 2 / Figure 5, validated in simulation.

A background flow holds the bottleneck at 75 % utilisation (fixed window of
3/4 BDP), leaving a 25 % residual for the newcomer.  A fresh flow then joins with one of the three start
strategies; we record

* the **peak extra queue** at the bottleneck beyond the pre-join level —
  Table 2's "maximum extra buffer" column, and
* the **transfer delay** of a fixed-size payload relative to the line-rate
  start — Table 2's "bytes delayed" column, expressed in time.

Expected shape (Table 2's ordering): line-rate start buffers ~0.75 BDP
(everything beyond the 25 % residual lands in the queue), exponential about
one final doubling (~0.3 BDP), linear ~1-2 ramp steps (~1/n BDP), while the
completion delays order the other way.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..cc.base import CongestionControl
from ..core.start_strategies import EXPONENTIAL, LINE_RATE, LINEAR, StartRampCC
from ..sim.engine import Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import FunctionExperiment, register


def _one_strategy(
    strategy: str, n_rtts: int, rate: float, link_delay_ns: int, seed: int
) -> Tuple[float, int]:
    """Returns (peak extra queue in BDP, joining flow's FCT in ns)."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=16 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=rate, link_delay_ns=link_delay_ns, switch_cfg=cfg)
    sw = net.switches[0]
    bottleneck = sw.ports[net._port_index(sw, net.path_ports(senders[0], recv)[-1])]

    # background flow pinned at three quarters of the line rate
    base_rtt = net.base_rtt_ns(senders[0], recv)
    bdp = rate * base_rtt / 8e9
    bg = Flow(1, senders[0], recv, int(rate), start_ns=0)  # effectively endless
    FlowSender(sim, net, bg, CongestionControl(init_cwnd_bytes=0.75 * bdp))
    sim.run(until=20 * base_rtt)
    baseline_queue = bottleneck.total_bytes

    join = Flow(2, senders[1], recv, int(4 * bdp), start_ns=sim.now)
    FlowSender(sim, net, join, StartRampCC(strategy, n_rtts=n_rtts))

    peak = {"q": 0}
    step = max(base_rtt // 20, 100)

    def sample():
        extra = bottleneck.total_bytes - baseline_queue
        if extra > peak["q"]:
            peak["q"] = extra
        if not join.done:
            sim.after(step, sample)

    sim.after(step, sample)
    sim.run(until=sim.now + 400 * base_rtt)
    if not join.done:
        raise RuntimeError(f"joining flow did not complete under {strategy}")
    return peak["q"] / bdp, join.fct_ns()


def _table2_strategy(
    strategy: str, n_rtts: int = 8, rate: float = 10e9, link_delay_ns: int = 2_000, seed: int = 1
) -> Dict[str, float]:
    """One Table 2 row: measured peak extra buffer (BDP) and FCT of a start strategy."""
    peak_bdp, fct = _one_strategy(strategy, n_rtts, rate, link_delay_ns, seed)
    return {"peak_extra_buffer_bdp": peak_bdp, "fct_ns": float(fct)}


register(
    FunctionExperiment(
        "table2",
        {
            strategy: (_table2_strategy, {"strategy": strategy, "seed": 1})
            for strategy in (LINE_RATE, EXPONENTIAL, LINEAR)
        },
        description="start-strategy validation: peak extra buffer vs transfer delay",
    )
)
