"""Figure 6: a window increase becomes visible in the delay two RTTs later.

One fixed-window flow saturates a slow bottleneck so that a steady queue
exists.  At ``bump_time`` the window is enlarged by one packet.  The sender's
measured delay stays flat for ~one more RTT (packets already in flight when
the bump happened) and only rises for packets sent *after* the bump — whose
ACKs arrive a further RTT later.  Hence the dual-RTT guard in §4.2.3:
re-running adaptive increase after one RTT would double-apply it.
"""

from __future__ import annotations

from typing import Dict, List

from ..cc.base import CongestionControl
from ..sim.engine import MICROSECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .registry import FunctionExperiment, register


class _FixedWindow(CongestionControl):
    """Constant window; the experiment manipulates cwnd externally."""

    def __init__(self, cwnd_bytes: float):
        super().__init__(init_cwnd_bytes=cwnd_bytes)

    def default_max_cwnd(self) -> float:
        return 1e12

    def on_timeout(self) -> None:  # keep the window fixed
        pass


class _TappedSender(FlowSender):
    """A sender that hands every packet it has handled to ``tap``."""

    __slots__ = ("tap",)

    def on_packet(self, pkt) -> None:
        super().on_packet(pkt)
        self.tap(pkt)


def _run_fig6(seed: int = 1) -> Dict[str, float]:
    """One 12-packet fixed window over 1 Gbps with 10 us links; returns the
    observed delay-step lag in RTTs (expected ~2)."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=16 * 1024 * 1024)
    net, senders, recv = star(sim, 1, rate_bps=1e9, link_delay_ns=10 * MICROSECOND, switch_cfg=cfg)
    mtu = 1000
    cc = _FixedWindow(12 * mtu)
    size = 4000 * mtu
    flow = Flow(1, senders[0], recv, size, start_ns=0)
    sender = _TappedSender(sim, net, flow, cc, mtu=mtu)

    # Sample delay exactly the way Algorithm 1 does: once per RTT, at the
    # ACK of the first packet sent after the previous boundary.
    state = {"bumped": False, "rtt_end_seq": 0, "boundaries": []}

    def tap(pkt):
        if state["bumped"] and pkt.seq >= state["rtt_end_seq"]:
            state["boundaries"].append(sender.last_rtt)
            state["rtt_end_seq"] = sender.snd_nxt

    sender.tap = tap

    # let the queue reach steady state, then bump the window by one packet
    warmup = 60 * sender.base_rtt
    steady_box = {}

    def bump():
        steady_box["delay"] = sender.last_rtt
        state["bumped"] = True
        state["rtt_end_seq"] = sender.snd_nxt
        cc.cwnd += mtu
        sender.try_send()

    sim.at(warmup, bump)
    sim.run(until=warmup + 40 * sender.base_rtt)

    steady = steady_box["delay"]
    boundaries: List[int] = state["boundaries"]
    if len(boundaries) < 4:
        raise RuntimeError("not enough RTT boundaries observed after the bump")
    threshold = steady + sender.base_rtt // 20
    lag = None
    for i, d in enumerate(boundaries):
        if d > threshold:
            lag = i + 1  # boundary i closes RTT i+1 after the increase
            break
    if lag is None:
        raise RuntimeError("delay never rose after the window bump")
    return {
        "lag_rtts": float(lag),
        "steady_delay_us": steady / 1e3,
        "base_rtt_us": sender.base_rtt / 1e3,
        "boundary_delays_us": [round(d / 1e3, 2) for d in boundaries[:6]],
    }


register(
    FunctionExperiment(
        "fig6",
        {"fig6": (_run_fig6, {"seed": 1})},
        description="window increase shows up in the delay two RTTs later",
    )
)
