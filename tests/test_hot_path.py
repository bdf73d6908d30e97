"""Hot-path overhaul tests: engine fast path, fused tx/delivery, packet pool.

Covers the allocation-free scheduling API (`call_at` / `call_after` /
`call_at2`), the fused transmission+propagation event on `Port`, the packet
free-list pool, and the satellite fixes that rode along (float clamping in
`Simulator.at`, `set_paused` range validation, `cut()` telemetry).
"""

import pytest

from repro.cc.base import CongestionControl
from repro.sim.engine import Simulator
from repro.sim.packet import DATA, PACKET_POOL, IntHop, Packet, PacketPool
from repro.sim.pfc import PfcConfig
from repro.sim.port import Port
from repro.sim.switch import SwitchConfig
from repro.probe import installed
from repro.telemetry import Recorder
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender


# ----------------------------------------------------------------------
# engine: allocation-free scheduling fast path
# ----------------------------------------------------------------------
def test_call_at_interleaves_with_classic_in_schedule_order():
    sim = Simulator()
    fired = []
    sim.at(50, fired.append, "classic1")
    sim.call_at(50, fired.append, "fast1")
    sim.at(50, fired.append, "classic2")
    sim.call_at(50, fired.append, "fast2")
    sim.run()
    assert fired == ["classic1", "fast1", "classic2", "fast2"]


def test_call_after_fires_at_offset_and_counts():
    sim = Simulator()
    fired = []
    sim.call_after(10, fired.append, "a")
    sim.call_after(30, fired.append, "b")
    assert sim.pending == 2
    n = sim.run()
    assert n == 2
    assert sim.pending == 0
    assert fired == ["a", "b"]
    assert sim.now == 30


def test_call_at_past_raises_call_after_negative_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(50, lambda: None)
    with pytest.raises(ValueError):
        sim.call_after(-1, lambda: None)


def test_call_at2_orders_fn1_before_fn2_at_same_time():
    sim = Simulator()
    fired = []
    sim.call_at2(100, fired.append, ("first",), 100, fired.append, ("second",))
    assert sim.pending == 2
    sim.run()
    assert fired == ["first", "second"]


def test_call_at2_earlier_second_event_fires_first():
    sim = Simulator()
    fired = []
    # time wins over seq: fn2 at 50 beats fn1 at 100
    sim.call_at2(100, fired.append, ("late",), 50, fired.append, ("early",))
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 100


def test_call_at2_past_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at2(100, lambda: None, (), 99, lambda: None, ())


def test_compaction_with_mixed_entry_shapes():
    sim = Simulator()
    fired = []
    handles = [sim.at(1000 + i, fired.append, f"h{i}") for i in range(200)]
    for i in range(50):
        sim.call_at(500 + i, fired.append, f"f{i}")
    # cancelling most classic events triggers _compact() mid-stream; the
    # bare-tuple fast entries must survive it
    for h in handles[:180]:
        h.cancel()
    assert sim.pending == 20 + 50
    sim.run()
    assert len(fired) == 70
    assert sim.pending == 0


def test_peek_time_sees_fast_entries_and_skips_cancelled():
    sim = Simulator()
    h = sim.at(5, lambda: None)
    sim.call_at(7, lambda: None)
    h.cancel()
    assert sim.peek_time() == 7


def test_run_max_events_counts_fast_entries():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.call_at(i + 1, fired.append, i)
    assert sim.run(max_events=4) == 4
    assert fired == [0, 1, 2, 3]
    assert sim.pending == 6
    sim.run()
    assert len(fired) == 10


# ----------------------------------------------------------------------
# satellite: Simulator.at float handling
# ----------------------------------------------------------------------
def test_at_float_fraction_below_now_clamps_to_now():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    assert sim.now == 100
    fired = []
    # a float a hair below now (truncates to 99) is a sub-ns artifact of
    # float delay math, not a past event: it must clamp, not raise
    sim.at(99.9999999, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]


def test_at_genuinely_past_float_still_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(98.5, lambda: None)
    with pytest.raises(ValueError):
        sim.at(99, lambda: None)


# ----------------------------------------------------------------------
# port: fused tx/propagation event semantics
# ----------------------------------------------------------------------
class SinkNode:
    def __init__(self):
        self.received = []

    def receive(self, pkt, in_idx):
        self.received.append((pkt, in_idx))


def make_port(rate_bps=8e9, n_queues=4, prop_delay_ns=100, **kwargs):
    sim = Simulator()
    port = Port(sim, rate_bps, n_queues=n_queues, name="p", **kwargs)
    sink = SinkNode()
    port.connect(sink, prop_delay_ns=prop_delay_ns)
    return sim, port, sink


def pkt(size=1000, prio=0, seq=0, kind=DATA):
    return Packet(kind, size, src=0, dst=1, flow_id=1, seq=seq, priority=prio)


def test_pause_between_start_of_tx_and_delivery_keeps_delivery():
    # at 8e9 bps = 1 byte/ns: tx ends at 500, delivery at 600
    sim, port, sink = make_port()
    port.enqueue(pkt(size=500, seq=1))
    port.enqueue(pkt(size=500, seq=2))
    sim.at(200, port.set_paused, 0, True)
    sim.run(until=2_000)
    # the in-flight packet keeps its delivery; the queued one is gated
    assert [p.seq for p, _ in sink.received] == [1]
    sim.at(3_000, port.set_paused, 0, False)
    sim.run()
    assert [p.seq for p, _ in sink.received] == [1, 2]
    assert sim.now == 3_000 + 500 + 100


def test_cut_mid_flight_delivers_wire_packet_drops_queued():
    sim, port, sink = make_port()
    port.enqueue(pkt(size=500, seq=1))
    port.enqueue(pkt(size=500, seq=2))
    sim.at(200, port.cut)
    sim.run()
    # seq 1 was already on the wire at the cut; seq 2 dies in the queue
    assert [p.seq for p, _ in sink.received] == [1]
    assert port.dropped_on_cut == 1
    assert port.total_bytes == 0


def test_run_until_between_tx_end_and_delivery():
    sim, port, sink = make_port()
    port.enqueue(pkt(size=500, seq=1))
    sim.run(until=550)  # after the t1=500 wake, before the t2=600 delivery
    assert sink.received == []
    assert not port.busy  # the wake already freed the port
    assert sim.now == 550
    sim.run()
    assert [p.seq for p, _ in sink.received] == [1]
    assert sim.now == 600


def test_fused_and_classic_modes_agree(monkeypatch):
    def deliveries():
        sim, port, sink = make_port()
        for i in range(4):
            port.enqueue(pkt(size=200 + 100 * i, seq=i, prio=i % 2))
        sim.run()
        return [(p.seq, sim.now) for p, _ in sink.received], sim.events_processed

    fused, _ = deliveries()
    monkeypatch.setattr(Port, "FUSED", False)
    classic, _ = deliveries()
    assert fused == classic


# ----------------------------------------------------------------------
# satellite: set_paused range validation
# ----------------------------------------------------------------------
def test_set_paused_out_of_range_raises():
    sim, port, sink = make_port(n_queues=4)
    with pytest.raises(ValueError):
        port.set_paused(-1, True)
    with pytest.raises(ValueError):
        port.set_paused(4, True)
    port.set_paused(3, True)  # the top valid class is fine


# ----------------------------------------------------------------------
# satellite: cut() telemetry
# ----------------------------------------------------------------------
def test_cut_reports_only_drained_queues_and_link_idle():
    rec = Recorder()
    with installed(rec):
        sim, port, sink = make_port(n_queues=4)
        port.enqueue(pkt(size=500, seq=1, prio=1))
        port.enqueue(pkt(size=500, seq=2, prio=1))
        sim.at(200, port.cut)  # mid-transmission of seq 1
        sim.run()
    cut_queue_events = [e for e in rec.events["queue"] if e[0] == 200]
    # only queue 1 held packets: untouched queues must not be reported
    assert cut_queue_events == [(200, "p", 1, 0, 0)]
    assert (200, "p", False) in rec.events["link"]


def test_cut_when_idle_emits_no_link_event():
    rec = Recorder()
    with installed(rec):
        sim, port, sink = make_port(n_queues=4)
        port.enqueue(pkt(size=100, seq=1))  # tx ends at 100, delivery at 200
        sim.run()  # drain completely: port idle again
        assert not port.busy
        port.cut()
    # idle-at-cut: the only idle link event is the end-of-tx one at t=100
    assert [e for e in rec.events["link"] if e[2] is False] == [(100, "p", False)]


# ----------------------------------------------------------------------
# packet pool
# ----------------------------------------------------------------------
def test_pool_acquire_resets_every_slot():
    pool = PacketPool()
    p = pool.acquire(DATA, 1000, src=1, dst=2, flow_id=3, seq=4, priority=5)
    p.ecn = True
    p.ecn_echo = True
    p.local_prio = 7
    p.echo_ts = 123
    p.ack_seq = 9
    p.sack = (1, 2)
    p.hash_salt = 42
    p.ctx = object()
    p.int_hops = [IntHop(1, 2, 3, 4.0)]
    pool.release(p)
    q = pool.acquire(DATA, 64, src=9, dst=8, flow_id=7)
    assert q is p  # recycled, not reconstructed
    assert q.size == 64 and q.src == 9 and q.dst == 8 and q.flow_id == 7
    assert q.seq == 0 and q.priority == 0 and q.local_prio == -1
    assert q.ecn is False and q.ecn_echo is False
    assert q.echo_ts == 0 and q.ack_seq == 0 and q.hash_salt == 0
    assert q.sack is None and q.ctx is None and q.int_hops is None
    assert pool.live == 1 and pool.reused == 1


def test_pool_release_clears_reference_slots():
    pool = PacketPool()
    p = pool.acquire(DATA, 1000, src=1, dst=2, flow_id=3)
    p.int_hops = [IntHop(1, 2, 3, 4.0)]
    p.ctx = object()
    p.sack = (0, 1)
    pool.release(p)
    # a parked packet must not pin other objects
    assert p.int_hops is None and p.ctx is None and p.sack is None


def test_pool_double_release_raises():
    pool = PacketPool()
    p = pool.acquire(DATA, 1000, src=1, dst=2, flow_id=3)
    pool.release(p)
    with pytest.raises(AssertionError):
        pool.release(p)


def test_port_cut_returns_queued_pooled_packets_to_free_list():
    """Port-level pin of the cut contract: queued pooled packets go back to
    the free list at cut time, the in-flight one still delivers."""
    live_before = PACKET_POOL.live
    sim, port, sink = make_port()
    for i in range(5):
        port.enqueue(PACKET_POOL.acquire(DATA, 1000, src=0, dst=1, flow_id=1, seq=i))
    dropped = port.cut()
    assert dropped == 4  # head is mid-transmission, 4 queued die
    assert PACKET_POOL.live == live_before + 1  # only the in-flight one out
    sim.run()
    assert len(sink.received) == 1  # the wire finished its frame
    PACKET_POOL.release(sink.received[0][0])  # sink is the terminal owner
    assert PACKET_POOL.live == live_before
    assert port.restore() == 0  # restore never drops, by contract


def test_end_to_end_run_leaks_no_packets():
    live_before = PACKET_POOL.live
    sim = Simulator(11)
    cfg = SwitchConfig(n_queues=2, pfc=PfcConfig(enabled=False))
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    flows = [Flow(i + 1, h, recv, 120_000) for i, h in enumerate(senders)]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=60_000), rto_ns=10**10)
    sim.run(until=5_000_000_000)
    assert all(f.done for f in flows)
    sim.run()  # drain trailing ACK deliveries
    # every acquired packet reached a terminal owner and was recycled
    assert PACKET_POOL.live == live_before
