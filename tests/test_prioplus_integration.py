"""End-to-end PrioPlus behaviour on real simulated networks."""


from repro.cc.ledbat import Ledbat
from repro.cc.swift import Swift, SwiftParams
from repro.core import ChannelConfig, PrioPlusCC, StartTier
from repro.experiments.samplers import RateSampler
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender


def _prioplus(channels, vprio, tier=StartTier.MEDIUM, inner=None, **kw):
    inner = inner or Swift(SwiftParams(target_scaling=False))
    return PrioPlusCC(inner, channels, vpriority=vprio, tier=tier, **kw)


def _net(n, rate=10e9, seed=1):
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    return (sim,) + star(sim, n, rate_bps=rate, link_delay_ns=1000, switch_cfg=cfg)


def test_high_priority_preempts_low():
    sim, net, senders, recv = _net(2)
    ch = ChannelConfig(n_priorities=8)
    rate = 10e9
    low = Flow(1, senders[0], recv, 2_000_000, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], recv, 500_000, vpriority=5, start_ns=200_000)
    FlowSender(sim, net, low, _prioplus(ch, 1, StartTier.LOW))
    s_hi = FlowSender(sim, net, high, _prioplus(ch, 5, StartTier.HIGH))
    sim.run(until=100_000_000)
    assert high.done and low.done
    ideal_high = high.size_bytes * 8e9 / rate + s_hi.base_rtt
    # strict priority: the high flow runs at ~line rate despite the low flow
    assert high.fct_ns() < 1.3 * ideal_high
    # the low flow yielded: its FCT covers its own bytes + the high flow's
    combined_ideal = (low.size_bytes + high.size_bytes) * 8e9 / rate
    assert low.fct_ns() > combined_ideal * 0.95


def test_work_conservation_after_preemption():
    """Total completion of both flows stays close to back-to-back ideal."""
    sim, net, senders, recv = _net(2)
    ch = ChannelConfig(n_priorities=8)
    low = Flow(1, senders[0], recv, 2_000_000, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], recv, 500_000, vpriority=5, start_ns=200_000)
    FlowSender(sim, net, low, _prioplus(ch, 1, StartTier.LOW))
    FlowSender(sim, net, high, _prioplus(ch, 5, StartTier.HIGH))
    sim.run(until=100_000_000)
    total_ideal = (low.size_bytes + high.size_bytes) * 8e9 / 10e9
    assert low.completion_ns < total_ideal * 1.45  # O2: limited waste


def test_three_priority_ordering():
    sim, net, senders, recv = _net(3)
    ch = ChannelConfig(n_priorities=8)
    flows = []
    for i, vp in enumerate((2, 4, 6)):
        f = Flow(i + 1, senders[i], recv, 800_000, vpriority=vp, start_ns=0)
        tier = StartTier.HIGH if vp == 6 else StartTier.MEDIUM
        FlowSender(sim, net, f, _prioplus(ch, vp, tier, probe_first=False))
        flows.append(f)
    sim.run(until=100_000_000)
    assert all(f.done for f in flows)
    # completion order follows priority: 6 before 4 before 2
    assert flows[2].completion_ns < flows[1].completion_ns < flows[0].completion_ns


def test_same_priority_flows_share():
    sim, net, senders, recv = _net(2)
    ch = ChannelConfig(n_priorities=8)
    f1 = Flow(1, senders[0], recv, 1_000_000, vpriority=3, start_ns=0)
    f2 = Flow(2, senders[1], recv, 1_000_000, vpriority=3, start_ns=0)
    FlowSender(sim, net, f1, _prioplus(ch, 3, probe_first=False))
    FlowSender(sim, net, f2, _prioplus(ch, 3, probe_first=False))
    sim.run(until=100_000_000)
    assert f1.done and f2.done
    # neither starves: completions within 40% of each other
    assert abs(f1.fct_ns() - f2.fct_ns()) < 0.4 * max(f1.fct_ns(), f2.fct_ns())


def test_stopped_flow_sends_only_probes():
    sim, net, senders, recv = _net(2)
    ch = ChannelConfig(n_priorities=8)
    low = Flow(1, senders[0], recv, 3_000_000, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], recv, 3_000_000, vpriority=6, start_ns=100_000)
    s_lo = FlowSender(sim, net, low, _prioplus(ch, 1, StartTier.LOW))
    FlowSender(sim, net, high, _prioplus(ch, 6, StartTier.HIGH))
    # sample the low flow's progress while the high flow dominates
    sim.run(until=800_000)
    assert s_lo.cc.relinquish_count >= 1
    mid_acked = s_lo.acked_payload
    sim.run(until=1_600_000)
    moved = s_lo.acked_payload - mid_acked
    # during domination the low flow makes (almost) no data progress
    assert moved < 0.2 * low.size_bytes
    assert low.probes_sent > 0
    sim.run(until=200_000_000)
    assert low.done and high.done


def test_prioplus_with_ledbat_inner():
    sim, net, senders, recv = _net(2)
    ch = ChannelConfig(n_priorities=8)
    low = Flow(1, senders[0], recv, 1_500_000, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], recv, 400_000, vpriority=5, start_ns=150_000)
    FlowSender(sim, net, low, _prioplus(ch, 1, StartTier.LOW, inner=Ledbat()))
    s_hi = FlowSender(sim, net, high, _prioplus(ch, 5, StartTier.HIGH, inner=Ledbat()))
    sim.run(until=100_000_000)
    assert low.done and high.done
    ideal_high = high.size_bytes * 8e9 / 10e9 + s_hi.base_rtt
    assert high.fct_ns() < 1.4 * ideal_high


def test_incast_cardinality_controls_delay():
    sim, net, senders, recv = _net(30, rate=25e9, seed=2)
    ch = ChannelConfig(n_priorities=4)
    flows, snds = [], []
    for i in range(30):
        f = Flow(i + 1, senders[i], recv, 200_000, vpriority=3, start_ns=0)
        s = FlowSender(sim, net, f, _prioplus(ch, 3, probe_first=False))
        flows.append(f)
        snds.append(s)
    sim.run(until=500_000_000)
    assert all(f.done for f in flows)
    assert net.total_drops() == 0
    # at least one flow saw the crowd and estimated a large cardinality
    assert max(s.cc.nflow for s in snds) > 3


def test_noise_filter_prevents_spurious_relinquish():
    """With one-sample filtering disabled vs. enabled under noise."""
    from repro.noise import LognormalNoise

    def run(filter_consecutive):
        sim, net, senders, recv = _net(1, seed=4)
        ch = ChannelConfig(fluctuation_ns=800, noise_ns=200, n_priorities=4)
        f = Flow(1, senders[0], recv, 1_000_000, vpriority=1, start_ns=0)
        cc = _prioplus(ch, 1, probe_first=False, filter_consecutive=filter_consecutive)
        # heavy noise relative to the narrow channel margin
        FlowSender(sim, net, f, cc, noise=LognormalNoise(median_ns=400, sigma=0.5))
        sim.run(until=500_000_000)
        assert f.done
        return cc.relinquish_count

    assert run(2) <= run(1)


def test_weighted_vs_strict_priority_tradeoff_end_to_end():
    """Larger weights help the preempted flow, cost the preemptor a little."""
    from repro.core import WeightedPrioPlusCC

    def run(weight):
        sim, net, senders, recv = _net(2, seed=6)
        ch = ChannelConfig(n_priorities=8)
        lo = Flow(1, senders[0], recv, 2_000_000, vpriority=1, start_ns=0)
        hi = Flow(2, senders[1], recv, 1_000_000, vpriority=5, start_ns=150_000)
        FlowSender(sim, net, lo, WeightedPrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), ch, 1, weight=weight,
            tier=StartTier.LOW))
        FlowSender(sim, net, hi, WeightedPrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), ch, 5, weight=weight,
            tier=StartTier.HIGH))
        sim.run(until=200_000_000)
        return hi.fct_ns(), lo.fct_ns()

    hi_strict, lo_strict = run(0.0)
    hi_weighted, lo_weighted = run(0.3)
    assert lo_weighted < lo_strict  # the residual share helps the low flow
    assert hi_weighted < hi_strict * 1.5  # without wrecking the high flow


def test_prioplus_under_heavy_noise_still_completes():
    from repro.noise import LognormalNoise

    sim, net, senders, recv = _net(3, seed=8)
    ch = ChannelConfig(fluctuation_ns=6000, noise_ns=3000, n_priorities=4)
    flows = []
    for i, vp in enumerate((1, 2, 3)):
        f = Flow(i + 1, senders[i], recv, 600_000, vpriority=vp, start_ns=0)
        FlowSender(sim, net, f,
                   _prioplus(ch, vp, StartTier.MEDIUM, probe_first=False),
                   noise=LognormalNoise(median_ns=1500, sigma=0.6))
        flows.append(f)
    sim.run(until=500_000_000)
    assert all(f.done for f in flows)


def test_metrics_on_real_prioplus_run():
    """Same-priority PrioPlus flows converge to a fair share."""
    sim = Simulator(2)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 3, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    ch = ChannelConfig(n_priorities=4)
    snds = []
    for i in range(3):
        f = Flow(i + 1, senders[i], recv, 4_000_000, vpriority=2, start_ns=0)
        cc = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), ch, 2,
                        tier=StartTier.MEDIUM, probe_first=False)
        snds.append(FlowSender(sim, net, f, cc))
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.flow_id, interval_ns=200_000)
    sim.run(until=4_000_000)
    allocations = [sampler.average_rate_bps(i + 1, 1_000_000, 4_000_000) for i in range(3)]
    # Jain's fairness index: 1 = perfectly fair, 1/3 = one flow takes all
    jain = sum(allocations) ** 2 / (len(allocations) * sum(a * a for a in allocations))
    assert jain > 0.85
    # utilisation: the mean aggregate rate over the window, as a share of the link
    aggregate = {}
    for i in range(3):
        for t, rate in sampler.series[i + 1]:
            if t >= 1_000_000:
                aggregate[t] = aggregate.get(t, 0.0) + rate
    assert sum(aggregate.values()) / len(aggregate) / 10e9 > 0.85
