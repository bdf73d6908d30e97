"""PFC pause accounting on the recorder's ``pfc`` channel, and receiver edge
cases (reordering, duplicates, probe echoes)."""

from repro.cc.base import CongestionControl
from repro.probe import installed
from repro.sim.engine import Simulator
from repro.sim.packet import ACK, DATA, PROBE, PROBE_ACK, Packet
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.telemetry import Recorder
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.receiver import FlowReceiver
from repro.transport.sender import FlowSender
from tests.helpers import ChannelLog


# ----------------------------------------------------------------------
# PFC pause counts and paused time
# ----------------------------------------------------------------------
def test_pfc_logger_counts_and_duration():
    log = ChannelLog()
    with installed(Recorder(log)):
        sim = Simulator(3)
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=64_000,
        headroom_per_port_per_prio=8_000,
        pfc=PfcConfig(enabled=True, xoff_bytes=4_000, dynamic=False),
    )
    net, senders, recv = star(sim, 2, rate_bps=100e9, link_delay_ns=100, switch_cfg=cfg)
    # slow the switch's egress toward the receiver to force sustained pause
    net.path_ports(senders[0], recv)[-1].ns_per_byte = 8.0  # ~1 Gbps
    f = Flow(1, senders[0], recv, 100_000)
    FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=100_000))
    sim.run(until=2_000_000_000)
    assert f.done
    records = log.events["pfc"]  # (t, switch, in_idx, prio, paused, backlog)
    pauses = sum(1 for r in records if r[4])
    resumes = len(records) - pauses
    assert pauses >= 1
    assert resumes >= 1
    assert pauses >= resumes
    since, paused_ns = {}, 0
    for t, switch, in_idx, prio, paused, _backlog in records:
        if paused:
            since[(switch, in_idx, prio)] = t
        else:
            paused_ns += t - since.pop((switch, in_idx, prio))
    paused_ns += sum(sim.now - t for t in since.values())
    assert paused_ns > 0


# ----------------------------------------------------------------------
# receiver edge cases
# ----------------------------------------------------------------------
class _CollectHost:
    """Stub host capturing emitted ACKs."""

    node_id = 42

    def __init__(self):
        self.sent = []
        self.port = None

    def send(self, pkt):
        self.sent.append(pkt)

    def local_ack_queue(self):
        return 17


def _data(seq, flow_id=1, ts=100):
    return Packet(DATA, 1040, src=7, dst=42, flow_id=flow_id, seq=seq, payload=1000, send_ts=ts)


def test_receiver_out_of_order_delivery():
    sim = Simulator()
    host = _CollectHost()
    flow = Flow(1, None, host, 3000)
    rx = FlowReceiver(sim, flow, n_packets=3, ack_priority=1)
    rx.on_packet(_data(2))
    assert rx.cum_seq == 0  # hole at 0
    rx.on_packet(_data(0))
    assert rx.cum_seq == 1
    rx.on_packet(_data(1))
    assert rx.cum_seq == 3
    assert flow.done
    # ACK per packet, each carrying the cumulative sequence at that moment
    assert [a.ack_seq for a in host.sent] == [0, 1, 3]


def test_receiver_duplicate_data_not_double_counted():
    sim = Simulator()
    host = _CollectHost()
    flow = Flow(1, None, host, 2000)
    rx = FlowReceiver(sim, flow, n_packets=2, ack_priority=1)
    rx.on_packet(_data(0))
    rx.on_packet(_data(0))  # duplicate (retransmission)
    assert rx.rx_count == 1
    assert not flow.done
    rx.on_packet(_data(1))
    assert flow.done
    # duplicates are still ACKed (the sender needs the signal)
    assert len(host.sent) == 3


def test_receiver_completion_time_set_once():
    sim = Simulator()
    host = _CollectHost()
    flow = Flow(1, None, host, 1000)
    rx = FlowReceiver(sim, flow, n_packets=1, ack_priority=1)
    sim.now = 555
    rx.on_packet(_data(0))
    first = flow.completion_ns
    sim.now = 999
    rx.on_packet(_data(0))
    assert flow.completion_ns == first == 555


def test_receiver_probe_echo():
    sim = Simulator()
    host = _CollectHost()
    flow = Flow(1, None, host, 1000)
    rx = FlowReceiver(sim, flow, n_packets=1, ack_priority=1)
    probe = Packet(PROBE, 64, src=7, dst=42, flow_id=1, send_ts=123)
    rx.on_packet(probe)
    (echo,) = host.sent
    assert echo.kind == PROBE_ACK
    assert echo.echo_ts == 123
    assert echo.dst == 7


def test_receiver_echo_carries_ecn_and_int():
    sim = Simulator()
    host = _CollectHost()
    flow = Flow(1, None, host, 1000)
    rx = FlowReceiver(sim, flow, n_packets=1, ack_priority=1)
    pkt = _data(0)
    pkt.ecn = True
    pkt.int_hops = ["hop"]
    rx.on_packet(pkt)
    (ack,) = host.sent
    assert ack.kind == ACK
    assert ack.ecn_echo
    assert ack.int_hops == ["hop"]
