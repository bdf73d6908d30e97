"""Unit tests for the strict-priority output port."""

import tracemalloc

from repro.audit.auditor import Auditor
from repro.obs.sampler import TimeSeriesSampler
from repro.sim.engine import Simulator
from repro.sim.packet import ACK, DATA, Packet
from repro.sim.port import Port
from repro.topology import paper_fabric


class SinkNode:
    def __init__(self):
        self.received = []

    def receive(self, pkt, in_idx):
        self.received.append(pkt)


def make_port(rate_bps=8e9, n_queues=4, **kwargs):
    sim = Simulator()
    port = Port(sim, rate_bps, n_queues=n_queues, **kwargs)
    sink = SinkNode()
    port.connect(sink, prop_delay_ns=100)
    return sim, port, sink


def pkt(size=1000, prio=0, seq=0, kind=DATA):
    return Packet(kind, size, src=0, dst=1, flow_id=1, seq=seq, priority=prio)


def test_serialisation_time():
    sim, port, sink = make_port(rate_bps=8e9)  # 1 byte/ns
    port.enqueue(pkt(size=500))
    sim.run()
    # 500 ns tx + 100 ns propagation
    assert sim.now == 600
    assert len(sink.received) == 1


def test_strict_priority_order():
    sim, port, sink = make_port()
    # enqueue low first, then high while the first low is transmitting
    port.enqueue(pkt(prio=0, seq=1))
    port.enqueue(pkt(prio=0, seq=2))
    port.enqueue(pkt(prio=3, seq=3))
    sim.run()
    seqs = [p.seq for p in sink.received]
    # seq 1 is already in transmission; the high-priority packet overtakes seq 2
    assert seqs == [1, 3, 2]


def test_fifo_within_priority():
    sim, port, sink = make_port()
    for i in range(5):
        port.enqueue(pkt(prio=1, seq=i))
    sim.run()
    assert [p.seq for p in sink.received] == list(range(5))


def test_pause_blocks_only_that_class():
    sim, port, sink = make_port()
    port.set_paused(0, True)
    port.enqueue(pkt(prio=0, seq=1))
    port.enqueue(pkt(prio=2, seq=2))
    sim.run()
    assert [p.seq for p in sink.received] == [2]
    port.set_paused(0, False)
    sim.run()
    assert [p.seq for p in sink.received] == [2, 1]


def test_resume_kicks_idle_port():
    sim, port, sink = make_port()
    port.set_paused(1, True)
    port.enqueue(pkt(prio=1))
    sim.run()
    assert sink.received == []
    port.set_paused(1, False)
    sim.run()
    assert len(sink.received) == 1


def test_ecn_marked_above_threshold():
    sim, port, sink = make_port(ecn_k=1500)
    p1, p2, p3 = pkt(), pkt(), pkt()
    port.enqueue(p1)  # queue empty -> dequeued immediately, no mark
    port.enqueue(p2)  # queue 0 + 1000 <= 1500 -> no mark
    port.enqueue(p3)  # queue 1000 + 1000 > 1500 -> mark
    sim.run()
    assert not p1.ecn
    assert not p2.ecn
    assert p3.ecn


def test_int_stamping_appends_hop():
    sim, port, sink = make_port(stamp_int=True)
    p = pkt()
    p.int_hops = []
    port.enqueue(p)
    sim.run()
    assert len(p.int_hops) == 1
    hop = p.int_hops[0]
    assert hop.rate_bps == port.rate_bps
    assert hop.qlen == 0  # dequeued from an otherwise empty port


def test_local_queue_mode_uses_local_prio():
    sim, port, sink = make_port(local_queues=True)
    lo = pkt(prio=0, seq=1)
    lo.local_prio = 0
    hi = pkt(prio=0, seq=2)
    hi.local_prio = 3
    blocker = pkt(prio=0, seq=0)
    blocker.local_prio = 0
    port.enqueue(blocker)  # starts transmitting
    port.enqueue(lo)
    port.enqueue(hi)
    sim.run()
    # same physical priority, but local queue 3 overtakes local queue 0
    assert [p.seq for p in sink.received] == [0, 2, 1]


def test_local_queue_pause_by_physical_class():
    sim, port, sink = make_port(local_queues=True)
    data = pkt(prio=0, seq=1)
    data.local_prio = 2
    ack = pkt(prio=1, seq=2, kind=ACK)
    ack.local_prio = 3
    port.set_paused(0, True)  # pause the physical data class
    port.enqueue(data)
    port.enqueue(ack)
    sim.run()
    assert [p.seq for p in sink.received] == [2]
    port.set_paused(0, False)
    sim.run()
    assert [p.seq for p in sink.received] == [2, 1]


def test_queue_byte_accounting():
    sim, port, sink = make_port()
    port.enqueue(pkt(size=1000, prio=0))
    port.enqueue(pkt(size=500, prio=0))
    port.enqueue(pkt(size=200, prio=1))
    # first packet is in transmission (already dequeued)
    assert port.total_bytes == 700
    sim.run()
    assert port.total_bytes == 0
    assert port.tx_bytes_total == 1700
    assert port.tx_packets_total == 3


def test_paper_fabric_ports_hold_no_queue_before_their_first_enqueue():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net, hosts = paper_fabric(Simulator(1))
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ports = [p for sw in net.switches for p in sw.ports] + [h.port for h in hosts]
    assert len(ports) == 856
    # ~11.1 kB a port when each built its 8 (switch) or 18 (NIC) deques up front
    assert used / len(ports) <= 2_500, used / len(ports)
    assert not any(p.queues for p in ports)


def test_readers_see_a_never_used_queue_as_empty_without_creating_it():
    sim, port, sink = make_port(n_queues=4)
    sampler, auditor = TimeSeriesSampler(), Auditor("warn")
    sampler.register("port", port)
    auditor.register("port", port)
    sampler.sample(0)
    (row,) = sampler.ports.rows
    assert row["queued_pkts"] == 0
    assert auditor._resident_packets()[0] == 0
    auditor._finalize_ports(0)
    assert auditor.report.violations == []
    assert sum(len(q) for q in port.queues.values()) == 0
    assert port.cut() == 0
    assert not port.queues
    port.restore()
    port.enqueue(pkt(prio=2, seq=1))  # idle port: straight onto the wire
    port.enqueue(pkt(prio=2, seq=2))
    assert list(port.queues) == [2]
    assert port.cut() == 1
