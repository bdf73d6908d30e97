"""Tests for the experiment-layer helpers: samplers, launch, factories."""

import pytest

from repro.cc.swift import Swift, SwiftParams
from repro.core import StartTier
from repro.experiments.launch import (
    _CHECK_EVERY_NS, FlowAdmitter, launch_specs, run_until_flows_done,
)
from repro.experiments.modes import CCFactory, Mode
from repro.experiments.samplers import DelaySampler, RateSampler
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from repro.workloads import FlowSpec


def _setup(n=2):
    sim = Simulator(1)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, n, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    return sim, net, senders, recv


def test_rate_sampler_measures_goodput():
    sim, net, senders, recv = _setup(1)
    flow = Flow(1, senders[0], recv, 500_000)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()))
    sampler = RateSampler(sim, [s], key=lambda s: "f", interval_ns=50_000)
    sim.run(until=1_000_000)
    assert flow.done
    series = sampler.series["f"]
    # time-integral of the sampled rate recovers the flow size (tolerances
    # for edge buckets)
    total = sum(r * 50_000 / 8e9 for _, r in series)
    assert total == pytest.approx(flow.size_bytes, rel=0.15)
    # average near line rate while transmitting
    assert sampler.average_rate_bps("f", 0, flow.completion_ns) > 0.5 * 10e9


def test_delay_sampler_records_series():
    sim, net, senders, recv = _setup(1)
    flow = Flow(1, senders[0], recv, 300_000)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()))
    d = DelaySampler(sim, s, interval_ns=20_000)
    sim.run(until=500_000)
    values = d.values()
    assert len(values) > 5
    assert all(v >= s.base_rtt * 0.9 for v in values)


def test_launch_specs_binds_modes_and_groups():
    sim, net, senders, recv = _setup(2)
    hosts = senders + [recv]
    fac = CCFactory(Mode.PRIOPLUS, n_priorities=4)
    specs = [FlowSpec(0, 2, 50_000, 0, tag="a"), FlowSpec(1, 2, 50_000, 0, tag="b")]
    flows, snds = launch_specs(sim, net, specs, hosts, fac, group_of=lambda s: 0 if s.tag == "a" else 3)
    assert flows[0].vpriority == 4  # group 0 -> highest channel
    assert flows[1].vpriority == 1
    assert flows[0].priority == flows[1].priority == 0  # shared physical queue
    ok = run_until_flows_done(sim, flows, 100_000_000)
    assert ok


def test_launch_specs_d2tcp_sets_deadlines():
    sim, net, senders, recv = _setup(1)
    hosts = senders + [recv]
    fac = CCFactory(Mode.D2TCP, n_priorities=4)
    specs = [FlowSpec(0, 1, 100_000, 1000)]
    flows, _ = launch_specs(sim, net, specs, hosts, fac, group_of=lambda s: 0)
    assert flows[0].deadline_ns is not None
    assert flows[0].deadline_ns > 1000


def test_launch_specs_and_admitter_bind_identically():
    """Up-front and staged admission share one binder: the same specs give
    the same flow ids (counting from 1), priorities, channels, deadlines and
    CC types."""
    specs = [
        FlowSpec(0, 2, 50_000, 0, tag="a"),
        FlowSpec(1, 2, 90_000, 2_000, tag="b"),
        FlowSpec(0, 2, 10_000, 5_000, tag="c"),
    ]
    group_of = lambda s: "abc".index(s.tag)  # noqa: E731

    def bound(mode, admit):
        sim, net, senders, recv = _setup(2)
        hosts = senders + [recv]
        admit(sim, net, hosts, CCFactory(mode, n_priorities=3))
        by_id = {}
        for host in hosts:
            by_id.update(host.senders)
        return [
            (fid, s.flow.priority, s.flow.vpriority, s.flow.deadline_ns, s.flow.tag,
             s.ack_priority, type(s.cc), type(getattr(s.cc, "inner", None)))
            for fid, s in sorted(by_id.items())
        ]

    for mode in (Mode.PRIOPLUS, Mode.PRIOPLUS_LEDBAT, Mode.PHYSICAL, Mode.D2TCP):
        eager = bound(mode, lambda sim, net, hosts, fac: launch_specs(
            sim, net, specs, hosts, fac, group_of))
        staged = bound(mode, lambda sim, net, hosts, fac: FlowAdmitter(
            sim, net, specs, hosts, fac, group_of, horizon_ns=1_000_000))
        assert eager == staged
        assert [row[0] for row in eager] == [1, 2, 3]
        assert all((row[3] is not None) == (mode == Mode.D2TCP) for row in eager)


def test_factory_tier_defaults():
    fac = CCFactory(Mode.PRIOPLUS, n_priorities=6)
    assert fac.tier(0) == StartTier.HIGH
    assert fac.tier(5) == StartTier.LOW
    assert fac.tier(2) == StartTier.MEDIUM


def test_factory_group_bounds():
    fac = CCFactory(Mode.PRIOPLUS, n_priorities=4)
    with pytest.raises(ValueError):
        fac.data_priority(4)
    with pytest.raises(ValueError):
        fac.vpriority(-1)


def test_factory_unknown_mode():
    with pytest.raises(ValueError):
        CCFactory("nonsense")


def test_switch_config_per_mode():
    pp = CCFactory(Mode.PRIOPLUS, n_priorities=8).switch_config()
    assert pp.n_queues == 2
    assert pp.ideal_headroom  # single-queue modes don't model headroom cost
    phys = CCFactory(Mode.PHYSICAL, n_priorities=8).switch_config()
    assert phys.n_queues == 9
    assert not phys.ideal_headroom
    hpcc = CCFactory(Mode.HPCC, n_priorities=8).switch_config()
    assert hpcc.ecn_k_bytes is not None  # ECN configured for ECN modes
    swift = CCFactory(Mode.SWIFT, n_priorities=8).switch_config()
    assert swift.ecn_k_bytes is None


def test_dcqcn_mode_is_d2tcp_layout_without_deadlines():
    """DCQCN runs on D2TCP's single ECN-marked queue; only the CC differs."""
    from repro.cc import D2tcp, Dcqcn

    dcqcn, d2tcp = (CCFactory(m, n_priorities=2) for m in (Mode.DCQCN, Mode.D2TCP))
    a, b = dcqcn.switch_config(), d2tcp.switch_config()
    assert {k: getattr(a, k) for k in a.__slots__ if k != "pfc"} == {
        k: getattr(b, k) for k in b.__slots__ if k != "pfc"
    }
    for g in (0, 1):
        assert dcqcn.data_priority(g) == d2tcp.data_priority(g)
        assert dcqcn.ack_priority(g) == d2tcp.ack_priority(g)
        assert dcqcn.vpriority(g) == d2tcp.vpriority(g)
    assert dcqcn.deadline_for(100_000, 0, 10e9, 0) is None
    assert d2tcp.deadline_for(100_000, 0, 10e9, 0) is not None
    assert type(dcqcn.make(None, 0)) is Dcqcn and type(d2tcp.make(None, 0)) is D2tcp


def test_run_until_flows_done_deadline():
    sim, net, senders, recv = _setup(1)
    flow = Flow(1, senders[0], recv, 10_000_000_000)  # can never finish in time
    FlowSender(sim, net, flow, Swift(SwiftParams()))
    ok = run_until_flows_done(sim, [flow], hard_deadline_ns=200_000)
    assert not ok
    assert sim.now <= 210_000


def test_run_until_flows_done_reads_each_completion_once():
    """The done-predicate keeps a cursor past the finished prefix: flows that
    complete in list order cost one read each plus one per check, not a
    re-walk of the whole prefix at every check (quadratic in the flow count)."""

    class CountingFlow:
        done = Flow.done  # the real predicate, over a completion_ns that counts

        def __init__(self):
            self.finished_at = None
            self.reads = 0

        @property
        def completion_ns(self):
            self.reads += 1
            return self.finished_at

    sim = Simulator(1)
    flows = [CountingFlow() for _ in range(200)]
    # completions spread over ten drive-loop checks
    step = _CHECK_EVERY_NS // 20
    for i, flow in enumerate(flows):
        sim.at((i + 1) * step, setattr, flow, "finished_at", (i + 1) * step)
    assert run_until_flows_done(sim, flows, 20 * _CHECK_EVERY_NS)
    checks = sim.now // _CHECK_EVERY_NS + 1
    assert checks >= 10
    assert sum(f.reads for f in flows) <= len(flows) + checks
