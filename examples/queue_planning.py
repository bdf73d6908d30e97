#!/usr/bin/env python3
"""Plan a datacenter's queue layout (§2.3): isolation outside, scheduling inside.

Three traffic classes share an 8-queue switch.  Physical queues isolate the
classes; PrioPlus channels provide scheduling *within* the classes that
need it.  The planner sizes each class's channel ladder from its expected
flow count and validates latency SLOs, then the script drives one planned
class end-to-end to show the plan working.

Run:  python examples/queue_planning.py
"""

from repro import Flow, FlowSender, Simulator, StartTier, Swift, SwiftParams, star
from repro.core import PrioPlusCC, TrafficClass, plan_queues
from repro.sim.switch import SwitchConfig


def main() -> None:
    plan = plan_queues(
        [
            TrafficClass("bulk-storage", n_virtual_priorities=8, expected_flows=300),
            TrafficClass("ml-training", n_virtual_priorities=4, expected_flows=64),
            TrafficClass("latency-rpc", n_virtual_priorities=4, expected_flows=32,
                         max_added_delay_ns=100_000),
        ]
    )
    print(plan.describe())

    # drive the ml-training class: two of its virtual priorities share the
    # class's single physical queue
    channels = plan.channels_of["ml-training"]
    q = plan.physical_queue_of["ml-training"]
    sim = Simulator(seed=1)
    cfg = SwitchConfig(n_queues=plan.n_physical_queues, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    lo = Flow(1, senders[0], recv, 2_000_000, priority=q, vpriority=1, start_ns=0)
    hi = Flow(2, senders[1], recv, 500_000, priority=q, vpriority=4, start_ns=300_000)
    FlowSender(sim, net, lo, PrioPlusCC(Swift(SwiftParams(target_scaling=False)),
                                        channels, 1, tier=StartTier.LOW),
               ack_priority=plan.ack_queue)
    s_hi = FlowSender(sim, net, hi, PrioPlusCC(Swift(SwiftParams(target_scaling=False)),
                                               channels, 4, tier=StartTier.HIGH),
                      ack_priority=plan.ack_queue)
    sim.run(until=100_000_000)
    ideal = hi.size_bytes * 8e9 / 10e9 + s_hi.base_rtt
    print(f"\nml-training class on physical queue {q}:")
    print(f"  high virtual priority FCT: {hi.fct_ns() / 1e3:.1f} us ({hi.fct_ns() / ideal:.2f}x ideal)")
    print(f"  low  virtual priority FCT: {lo.fct_ns() / 1e3:.1f} us (yielded, then reclaimed)")


if __name__ == "__main__":
    main()
