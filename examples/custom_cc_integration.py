#!/usr/bin/env python3
"""Integrating PrioPlus with a different delay-based CC (LEDBAT, §4.4).

PrioPlus is a *wrapper*: any CC that exposes ``target_delay_ns`` (set
through ``pin_target``, inherited from ``CongestionControl``), ``ai_bytes``
and ``set_target_scaling`` can gain virtual priority.  This
example wraps LEDBAT — a scavenger transport that normally supports only
"one priority below best effort" — and shows it suddenly supporting a
ladder of strict priorities, then does the same with a custom toy CC to
demonstrate the full integration surface.

Run:  python examples/custom_cc_integration.py
"""

from repro import ChannelConfig, Flow, FlowSender, Ledbat, PrioPlusCC, Simulator, StartTier, star
from repro.cc.base import CongestionControl
from repro.transport.flow import AckInfo

RATE = 10e9


class ToyDelayCC(CongestionControl):
    """Minimal delay-based CC implementing the PrioPlus integration surface.

    Window rule: +ai per RTT below target, multiplicative 0.85 above.
    """

    def __init__(self):
        super().__init__()
        self.target_delay_ns = 0  # set by PrioPlus to the channel target
        self.ai_bytes = 0.0  # adjusted by PrioPlus (cardinality / dual-RTT)

    def configure(self):
        self.target_delay_ns = self.base_rtt + 10_000
        self.ai_bytes = float(self.mtu)

    def set_target_scaling(self, enabled: bool):
        """No scaling heuristic to disable — present for the interface."""

    def on_ack(self, info: AckInfo):
        if info.acked_bytes <= 0:
            return
        if info.delay_ns < self.target_delay_ns:
            self.cwnd += self.ai_bytes * info.acked_bytes / max(self.cwnd, self.mtu)
        else:
            self.cwnd *= 0.85
        self.clamp()


def run(make_cc, label: str) -> None:
    sim = Simulator(seed=3)
    net, senders, receiver = star(sim, n_senders=2, rate_bps=RATE, link_delay_ns=1500)
    channels = ChannelConfig(n_priorities=8)
    low = Flow(1, senders[0], receiver, 2_000_000, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], receiver, 500_000, vpriority=5, start_ns=300_000)
    FlowSender(sim, net, low, PrioPlusCC(make_cc(), channels, 1, tier=StartTier.LOW))
    s_hi = FlowSender(sim, net, high, PrioPlusCC(make_cc(), channels, 5, tier=StartTier.HIGH))
    sim.run(until=100_000_000)
    ideal_high = high.size_bytes * 8e9 / RATE + s_hi.base_rtt
    print(f"{label:24s} high FCT {high.fct_ns() / 1e3:7.1f} us "
          f"({high.fct_ns() / ideal_high:.2f}x ideal), low FCT {low.fct_ns() / 1e3:7.1f} us")


def main() -> None:
    print("PrioPlus wrapped around three different delay-based CCs:")
    from repro import Swift, SwiftParams

    run(lambda: Swift(SwiftParams(target_scaling=False)), "PrioPlus + Swift")
    run(lambda: Ledbat(), "PrioPlus + LEDBAT")
    run(lambda: ToyDelayCC(), "PrioPlus + ToyDelayCC")


if __name__ == "__main__":
    main()
