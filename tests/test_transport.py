"""Transport-layer tests: reliability, FCT sanity, pacing, probes, loss."""

import tracemalloc
from collections import deque

import pytest

from repro.cc.base import CongestionControl
from repro.cc.swift import Swift, SwiftParams
from repro.core import ChannelConfig, PrioPlusCC
from repro.sim.engine import Simulator
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.receiver import Filled
from repro.transport.sender import FlowSender

from tests.helpers import tiny_star


def test_single_flow_completes_and_fct_sane():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 100_000)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()))
    sim.run(until=100_000_000)
    assert flow.done
    assert flow.sender_done_ns is not None
    ideal = flow.size_bytes * 8e9 / 10e9
    assert flow.fct_ns() >= ideal
    assert flow.fct_ns() < ideal * 3 + 10 * s.base_rtt


def test_flow_smaller_than_mtu():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 1)
    FlowSender(sim, net, flow, Swift(SwiftParams()))
    sim.run(until=10_000_000)
    assert flow.done


def test_flow_exact_mtu_multiple():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 5000)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()), mtu=1000)
    assert s.n_packets == 5
    assert s.payload_of(4) == 1000
    sim.run(until=10_000_000)
    assert flow.done


def test_last_packet_partial_payload():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 2500)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()), mtu=1000)
    assert s.n_packets == 3
    assert s.payload_of(2) == 500


def test_zero_size_flow_rejected():
    sim, net, senders, recv = tiny_star(1)
    with pytest.raises(ValueError):
        Flow(1, senders[0], recv, 0)


def test_two_flows_share_bottleneck_fairly():
    sim, net, senders, recv = tiny_star(2)
    f1 = Flow(1, senders[0], recv, 400_000)
    f2 = Flow(2, senders[1], recv, 400_000)
    FlowSender(sim, net, f1, Swift(SwiftParams()))
    FlowSender(sim, net, f2, Swift(SwiftParams()))
    sim.run(until=100_000_000)
    assert f1.done and f2.done
    # both roughly 2x the solo time: neither starved
    solo = 400_000 * 8e9 / 10e9
    assert f1.fct_ns() < 3.2 * solo
    assert f2.fct_ns() < 3.2 * solo


def test_sub_mtu_window_paces():
    """cwnd of half a packet sends ~1 packet per 2 RTTs."""
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 10_000)
    cc = CongestionControl(init_cwnd_bytes=500.0)
    s = FlowSender(sim, net, flow, cc, mtu=1000)
    sim.run(until=100_000_000)
    assert flow.done
    # 10 packets at 1 per ~2 base RTTs of pacing
    assert flow.fct_ns() >= 17 * s.base_rtt


def test_stop_resume():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 1_000_000)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()))
    sim.after(10_000, s.stop_sending)
    sim.run(until=300_000)
    assert not flow.done
    stalled = s.acked_payload
    sim.run(until=600_000)
    assert s.acked_payload == stalled  # nothing moved while stopped
    s.resume_sending()
    sim.run(until=100_000_000)
    assert flow.done


def test_probe_round_trip():
    sim, net, senders, recv = tiny_star(1)
    # data starts late so the probe echo arrives before completion
    flow = Flow(1, senders[0], recv, 10_000, start_ns=1_000_000)
    received = []

    class ProbingCC(CongestionControl):
        def on_probe_ack(self, info):
            received.append(info)

    cc = ProbingCC(init_cwnd_bytes=10_000)
    s = FlowSender(sim, net, flow, cc)
    s.send_probe_after(0)
    sim.run(until=10_000_000)
    assert len(received) == 1
    info = received[0]
    assert info.is_probe
    # probe delay is normalised to data-packet equivalents
    assert abs(info.delay_ns - s.base_rtt) < s.base_rtt * 0.5
    assert flow.probes_sent == 1


def test_retransmission_recovers_from_loss():
    """Force drops with a tiny lossy buffer; the flow must still complete."""
    sim = Simulator(3)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=5_000, pfc=PfcConfig(enabled=False))
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    f1 = Flow(1, senders[0], recv, 200_000)
    f2 = Flow(2, senders[1], recv, 200_000)
    # NoCC-ish blast to overflow the buffer
    FlowSender(sim, net, f1, CongestionControl(init_cwnd_bytes=100_000), rto_ns=200_000)
    FlowSender(sim, net, f2, CongestionControl(init_cwnd_bytes=100_000), rto_ns=200_000)
    sim.run(until=1_000_000_000)
    assert net.total_drops() > 0
    assert f1.done and f2.done
    assert f1.retransmits + f2.retransmits > 0


def test_every_byte_delivered_exactly_once():
    sim = Simulator(3)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=4_000, pfc=PfcConfig(enabled=False))
    net, senders, recv = star(sim, 1, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    flow = Flow(1, senders[0], recv, 50_000)
    s = FlowSender(sim, net, flow, CongestionControl(init_cwnd_bytes=50_000), rto_ns=150_000)
    sim.run(until=1_000_000_000)
    assert flow.done
    assert s.receiver.rx_count == s.n_packets
    assert all(s.receiver.received)


def test_rto_rearm_until_done():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 10_000)
    s = FlowSender(sim, net, flow, Swift(SwiftParams()))
    sim.run(until=100_000_000)
    assert s._rto_ev is None  # disarmed after completion


def test_on_done_callbacks():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 10_000)
    sender_done, recv_done = [], []
    FlowSender(
        sim, net, flow, Swift(SwiftParams()), on_done=sender_done.append, on_receive_done=recv_done.append
    )
    sim.run(until=10_000_000)
    assert sender_done == [flow]
    assert recv_done == [flow]
    assert flow.completion_ns <= flow.sender_done_ns


def test_flow_start_time_respected():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 10_000, start_ns=500_000)
    FlowSender(sim, net, flow, Swift(SwiftParams()))
    sim.run(until=10_000_000)
    assert flow.first_tx_ns >= 500_000


def test_slowdown_and_ideal_fct_helpers():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 100_000)
    FlowSender(sim, net, flow, Swift(SwiftParams()))
    sim.run(until=100_000_000)
    # the paper's slowdown, FCT over the ideal FCT (size at the bottleneck
    # rate), cannot fall below 1
    assert flow.fct_ns() / (100_000 * 8e9 / 10e9) >= 1.0


def test_fct_before_completion_raises():
    sim, net, senders, recv = tiny_star(1)
    flow = Flow(1, senders[0], recv, 10_000)
    with pytest.raises(RuntimeError):
        flow.fct_ns()


def _per_flow_containers(sender):
    """Names of the bytearrays, deques and sets a sender and its receiver hold."""
    rcv = sender.receiver
    held = [(n, getattr(sender, n)) for n in type(sender).__slots__]
    held += [(n, getattr(rcv, n)) for n in rcv.__slots__]
    return [n for n, v in held if isinstance(v, (bytearray, deque, set))]


def test_per_packet_state_lives_with_the_flow():
    """Per-packet bitmaps and retransmit containers exist only between a
    flow's start and finish: an idle 2 MB flow costs a fraction of its three
    2 KB bitmaps, a finished one holds none, and a go-back-N retransmit still
    gets its queue."""
    sim, net, hosts, recv = tiny_star(1)
    channels = ChannelConfig()

    def build(fid):
        cc = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), channels, vpriority=1, probe_first=False)
        return FlowSender(sim, net, Flow(fid, hosts[0], recv, 2_000_000), cc)

    build(0)  # first-use caches stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idle = [build(fid) for fid in range(1, 1001)]
        per_flow = (tracemalloc.get_traced_memory()[0] - before) / len(idle)
    finally:
        tracemalloc.stop()
    # ~11.7 KB when every sender held its bitmaps, ~3.2 KB with an instance dict
    assert per_flow < 2_500, per_flow
    s = idle[0]
    assert s.sent is s.acked is s.receiver.received
    assert len(s.sent) == s.n_packets == 2_000 and not any(s.sent)
    assert _per_flow_containers(s) == []
    with pytest.raises(TypeError):
        s.acked[0] = 1

    # go-back-N: a cut link silences the flow for a full RTO
    sim = Simulator(5)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, hosts, recv = star(sim, 1, rate_bps=10e9, link_delay_ns=1_000, switch_cfg=cfg)
    flow = Flow(1, hosts[0], recv, 10_000)
    s = FlowSender(sim, net, flow, CongestionControl(init_cwnd_bytes=20_000), rto_ns=100_000)
    sim.run(until=2_000)  # packets on the wire, none delivered yet
    assert sorted(_per_flow_containers(s)) == ["acked", "received", "sent"]
    net.set_link_state(net.switches[0], recv, up=False)
    sim.run(until=150_000)  # the RTO fired and queued every lost packet
    assert flow.retransmits > 0
    assert isinstance(s._retx_queue, deque) and isinstance(s._retx_pending, set)
    net.set_link_state(net.switches[0], recv, up=True)
    sim.run(until=100_000_000)
    assert flow.done and s.completed
    assert _per_flow_containers(s) == []
    assert s.sent is s.acked is s.receiver.received and all(s.sent)
    assert bytes(s.receiver.received) == b"\x01" * s.n_packets
    assert isinstance(s.sent, Filled)
