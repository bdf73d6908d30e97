#!/usr/bin/env python3
"""The Fig-8 staircase, with an ASCII bandwidth timeline.

Four virtual priorities (channels 3-6), two flows each, share ONE physical
queue.  Flows start lowest-priority-first and end in the same order, so the
"reigning" priority changes every interval.  The timeline shows each
priority's share of the bottleneck over time — a staircase up, then down.

Run:  python examples/virtual_priority_staircase.py
"""

from repro import ChannelConfig, Flow, FlowSender, PrioPlusCC, Simulator, StartTier, Swift, SwiftParams, star
from repro.experiments.samplers import RateSampler

RATE = 10e9
STAGGER_NS = 2_000_000
PRIORITIES = (3, 4, 5, 6)
FLOWS_PER_PRIO = 2


def main() -> None:
    sim = Simulator(seed=1)
    net, senders, receiver = star(
        sim, n_senders=len(PRIORITIES) * FLOWS_PER_PRIO, rate_bps=RATE, link_delay_ns=1500
    )
    channels = ChannelConfig(n_priorities=max(PRIORITIES))

    snds = []
    fid = 1
    for rank, prio in enumerate(PRIORITIES):
        size = int(RATE * 2 * STAGGER_NS / 8e9 / FLOWS_PER_PRIO)
        for j in range(FLOWS_PER_PRIO):
            host = senders[rank * FLOWS_PER_PRIO + j]
            flow = Flow(fid, host, receiver, size, vpriority=prio,
                        start_ns=rank * STAGGER_NS, tag=prio)
            fid += 1
            cc = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), channels,
                            vpriority=prio, tier=StartTier.MEDIUM)
            snds.append(FlowSender(sim, net, flow, cc))

    sampler = RateSampler(sim, snds, key=lambda s: s.flow.tag, interval_ns=200_000)
    total = 2 * len(PRIORITIES) * STAGGER_NS
    sim.run(until=int(total * 1.3))

    print(f"{'time (ms)':>10} | " + " | ".join(f"prio {p}" for p in PRIORITIES) + " | share timeline")
    times = sorted({t for series in sampler.series.values() for t, _ in series})
    for t in times:
        shares = []
        for p in PRIORITIES:
            rate = dict(sampler.series.get(p, [])).get(t, 0.0)
            shares.append(rate / RATE)
        bar = ""
        for p, s in zip(PRIORITIES, shares):
            bar += str(p) * int(round(s * 20))
        cells = " | ".join(f"{s:6.2f}" for s in shares)
        print(f"{t / 1e6:>10.2f} | {cells} | {bar}")


if __name__ == "__main__":
    main()
