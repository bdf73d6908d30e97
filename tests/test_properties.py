"""Cross-module property-based tests on simulator invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.base import CongestionControl
from repro.cc.swift import Swift, SwiftParams
from repro.sim.engine import Simulator
from repro.sim.packet import DATA, Packet
from repro.sim.pfc import PfcConfig
from repro.sim.port import Port
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender


class _Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt, in_idx):
        self.received.append(pkt)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(64, 1500)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_port_conserves_packets_and_orders_within_priority(items):
    """Every enqueued packet is delivered exactly once; FIFO per priority."""
    sim = Simulator()
    port = Port(sim, 8e9, n_queues=4)
    sink = _Sink()
    port.connect(sink, 100)
    for i, (prio, size) in enumerate(items):
        port.enqueue(Packet(DATA, size, 0, 1, flow_id=1, seq=i, priority=prio))
    sim.run()
    assert len(sink.received) == len(items)
    assert sorted(p.seq for p in sink.received) == list(range(len(items)))
    for prio in range(4):
        seqs = [p.seq for p in sink.received if p.priority == prio]
        assert seqs == sorted(seqs)


@given(st.integers(1, 6), st.integers(1, 200), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_property_flows_always_complete_and_deliver_every_byte(n_flows, kb, seed):
    """Random flow counts/sizes on a shared bottleneck: reliable delivery."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=4 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    flows, snds = [], []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, kb * 1000 + i)
        s = FlowSender(sim, net, f, Swift(SwiftParams(target_scaling=False)))
        flows.append(f)
        snds.append(s)
    sim.run(until=2_000_000_000)
    for f, s in zip(flows, snds):
        assert f.done
        assert s.acked_payload == f.size_bytes
        assert s.receiver.rx_count == s.n_packets
        assert f.fct_ns() >= f.size_bytes * 8e9 / 10e9  # can't beat line rate


@given(st.integers(2, 8), st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_property_pfc_keeps_fabric_lossless(n_flows, seed):
    """With PFC on and headroom sized, a blast never drops packets."""
    sim = Simulator(seed)
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=256 * 1024,
        headroom_per_port_per_prio=16 * 1024,
        pfc=PfcConfig(enabled=True, xoff_bytes=8 * 1024, dynamic=False),
    )
    net, senders, recv = star(sim, n_flows, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    flows = []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, 60_000)
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=60_000))
        flows.append(f)
    sim.run(until=2_000_000_000)
    assert net.total_drops() == 0
    assert all(f.done for f in flows)


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_property_same_seed_same_result(seed):
    """Bit-for-bit reproducibility of a small contention scenario."""

    def run_once():
        sim = Simulator(seed)
        cfg = SwitchConfig(n_queues=2, buffer_bytes=4 * 1024 * 1024)
        net, senders, recv = star(sim, 3, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
        flows = []
        for i in range(3):
            f = Flow(i + 1, senders[i], recv, 150_000, start_ns=i * 10_000)
            FlowSender(sim, net, f, Swift(SwiftParams()))
            flows.append(f)
        sim.run(until=1_000_000_000)
        return [f.completion_ns for f in flows]

    assert run_once() == run_once()
