"""Edge-case coverage: packets, flow records, host dispatch."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.packet import ACK, DATA, HEADER_BYTES, MIN_PACKET_BYTES, IntHop, Packet
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import AckInfo, Flow


def test_packet_defaults():
    p = Packet(DATA, 1040, src=1, dst=2, flow_id=9, seq=3, priority=2, payload=1000, send_ts=50)
    assert p.kind == DATA
    assert not p.ecn and not p.ecn_echo
    assert p.int_hops is None
    assert p.local_prio == -1
    ack = Packet(ACK, MIN_PACKET_BYTES, src=2, dst=1, flow_id=9)
    assert ack.kind == ACK and ack.size == MIN_PACKET_BYTES
    assert "DATA" in repr(p)


def test_int_hop_fields():
    hop = IntHop(qlen=100, tx_bytes=5000, ts=42, rate_bps=1e9)
    assert (hop.qlen, hop.tx_bytes, hop.ts, hop.rate_bps) == (100, 5000, 42, 1e9)


def test_header_constants():
    assert HEADER_BYTES == 40
    assert MIN_PACKET_BYTES == 64


def test_flow_record_fields():
    f = Flow(5, None, None, 1234, priority=3, vpriority=2, start_ns=10, tag="t")
    assert not f.done
    assert f.tag == "t"
    f.completion_ns = 110
    assert f.fct_ns() == 100
    assert "Flow 5" in repr(f)


def test_ack_info_fields():
    info = AckInfo(now=10, delay_ns=20, ecn=True, acked_bytes=1000, seq=7,
                   int_hops=["h"], is_probe=False, cum_seq=4)
    assert info.cum_seq == 4
    assert info.int_hops == ["h"]


def test_host_unconnected_errors():
    sim = Simulator()
    host = Host(sim, 0)
    with pytest.raises(RuntimeError):
        host.send(Packet(DATA, 100, 0, 1, 1))
    with pytest.raises(RuntimeError):
        host.local_data_queue(1)
    with pytest.raises(RuntimeError):
        host.local_ack_queue()


def test_host_double_attach_rejected():
    sim = Simulator()
    host = Host(sim, 0)
    host.attach_port(10e9)
    with pytest.raises(RuntimeError):
        host.attach_port(10e9)


def test_host_drops_packets_for_unknown_flows():
    """Stale packets for finished/unknown flows must not crash dispatch."""
    sim = Simulator()
    net, senders, recv = star(sim, 1, switch_cfg=SwitchConfig(n_queues=2))
    pkt = Packet(DATA, 100, src=senders[0].node_id, dst=recv.node_id, flow_id=404)
    recv.receive(pkt, 0)
    assert recv.rx_packets == 1  # counted, silently ignored


def test_host_rx_accounting():
    sim = Simulator()
    net, senders, recv = star(sim, 1, rate_bps=10e9, switch_cfg=SwitchConfig(n_queues=2))
    senders[0].send(Packet(DATA, 500, src=senders[0].node_id, dst=recv.node_id, flow_id=1))
    sim.run()
    assert recv.rx_bytes == 500
    assert recv.rx_packets == 1


def test_unknown_packet_kind_raises():
    sim = Simulator()
    net, senders, recv = star(sim, 1, switch_cfg=SwitchConfig(n_queues=2))
    bad = Packet(99, 100, src=0, dst=recv.node_id, flow_id=1)
    with pytest.raises(RuntimeError):
        recv.receive(bad, 0)
