"""Hot-path tests: engine fast path, fused tx/delivery, the per-hop common
case, packet pool.

Covers the allocation-free scheduling API (`call_at` / `call_at2`), the
fused transmission+propagation event on `Port`, the inline common case of
`Switch.receive` / `_on_port_dequeue` / `Port.enqueue` against the general
path every hop takes once a sink listens (`probe.on`), the calls-per-event
budget that common case buys, the packet free-list pool, and
the satellite fixes that rode along (float clamping in `Simulator.at`,
`set_paused` range validation, `cut()` telemetry, the ECMP pick cache bound).
"""

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Hpcc, Swift, SwiftParams
from repro.cc.base import CongestionControl
from repro.faults.actors import LinkImpairment
from repro.sim import switch as switch_mod
from repro.sim.engine import Simulator
from repro.sim.packet import DATA, PACKET_POOL, IntHop, Packet, PacketPool
from repro.sim.pfc import PfcConfig
from repro.sim.port import Port
from repro.sim.switch import SwitchConfig, ecmp_hash
from repro.probe import installed
from repro.telemetry import Recorder
from repro.topology import fat_tree, star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from tests.helpers import ChannelLog, live_events


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


def test_call_at_fires_at_time_and_counts():
    sim = Simulator()
    fired = []
    sim.call_at(10, fired.append, "a")
    sim.call_at(30, fired.append, "b")
    assert live_events(sim) == 2
    n = sim.run()
    assert n == 2
    assert live_events(sim) == 0
    assert fired == ["a", "b"]
    assert sim.now == 30


def test_call_at_past_raises():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(50, lambda: None)


def test_call_at2_orders_fn1_before_fn2_at_same_time():
    sim = Simulator()
    fired = []
    sim.call_at2(100, fired.append, ("first",), 100, fired.append, ("second",))
    assert live_events(sim) == 2
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
    assert live_events(sim) == 20 + 50
    sim.run()
    assert len(fired) == 70
    assert live_events(sim) == 0


def test_peek_time_sees_fast_entries_and_skips_cancelled():
    sim = Simulator()
    h = sim.at(5, lambda: None)
    sim.call_at(7, lambda: None)
    h.cancel()
    assert sim.peek_time() == 7


def test_run_counts_fast_entries():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.call_at(i + 1, fired.append, i)
    assert sim.run(until=4) == 4
    assert fired == [0, 1, 2, 3]
    assert live_events(sim) == 6
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


# ----------------------------------------------------------------------
# the per-hop common case vs the general path (the one differential oracle)
# ----------------------------------------------------------------------
class _Listener:
    """Hears one site event and does nothing: ``probe.on`` turns true, so
    every hop takes receive -> try_admit_shared -> on_enqueue -> enqueue ->
    _kick -> _on_port_dequeue -> release -> on_dequeue."""

    def regime(self, t, mode, reason, n_flows, n_withdrawn):  # a pure-packet run never emits it
        pass


class _RecordingHpcc(Hpcc):
    """HPCC that keeps the ECN echo and the INT stack of every ACK."""

    def __init__(self, seen):
        super().__init__()
        self._seen = seen

    def on_ack(self, info):
        hops = [(h.qlen, h.tx_bytes, h.ts, h.rate_bps) for h in info.int_hops or ()]
        self._seen.append((info.ecn, hops))
        super().on_ack(info)


_WORLDS = st.fixed_dictionaries(
    {
        "topo": st.sampled_from(["star", "fat_tree"]),
        "n_queues": st.integers(2, 3),
        "n_lossless": st.integers(1, 2),
        "buffer_bytes": st.integers(24_000, 90_000),
        "headroom": st.integers(1_000, 6_000),
        "xoff": st.integers(2_500, 9_000),
        "dynamic": st.booleans(),
        "ecn_k": st.integers(1_500, 12_000),
        "n_flows": st.integers(2, 5),
        "flow_kb": st.integers(8, 60),
        "seed": st.integers(0, 2**16),
        "fault_hop": st.integers(0, 7),
        "t_fault": st.integers(5_000, 120_000),
    }
)

#: a world that crosses every threshold the common case routes away from
_PINNED_WORLD = {
    "topo": "star", "n_queues": 2, "n_lossless": 1, "buffer_bytes": 30_000, "headroom": 2_000,
    "xoff": 4_000, "dynamic": False, "ecn_k": 3_000, "n_flows": 4,
    "flow_kb": 40, "seed": 5, "fault_hop": 1, "t_fault": 40_000,
}


def _run_world(w):
    """Build the world ``w`` describes, run it 3 ms, return what it left behind."""
    live_before = PACKET_POOL.live
    sim = Simulator(w["seed"])
    cfg = SwitchConfig(
        n_queues=w["n_queues"],
        buffer_bytes=w["buffer_bytes"],
        headroom_per_port_per_prio=w["headroom"],
        n_lossless=w["n_lossless"],
        pfc=PfcConfig(enabled=True, xoff_bytes=w["xoff"], dynamic=w["dynamic"]),
        ecn_k_bytes=w["ecn_k"],
    )
    n = w["n_flows"]
    if w["topo"] == "star":
        net, srcs, sink = star(sim, n, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    else:
        net, hosts = fat_tree(sim, k=4, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
        srcs, sink = [hosts[3 * i] for i in range(n)], hosts[-1]
    acks_seen = []  # flow 1's (ecn echo, INT hops) per ACK
    flows = []
    for i, src in enumerate(srcs):
        flow = Flow(i + 1, src, sink, w["flow_kb"] * 1000 + 37 * i, priority=i % (w["n_queues"] - 1),
                    start_ns=700 * i)
        cc = (
            _RecordingHpcc(acks_seen),
            CongestionControl(init_cwnd_bytes=30_000),
            Swift(SwiftParams(target_scaling=False)),
        )[i % 3]
        FlowSender(sim, net, flow, cc, rto_ns=150_000)
        flows.append(flow)
    # one class paused and resumed, one cut/restore, one impaired link — on
    # flow 1's path, host NIC (an un-owned port) included
    path = net.path_ports(srcs[0], sink, flow_id=1)
    victim = path[w["fault_hop"] % len(path)]
    lossy_wire = path[(w["fault_hop"] + 1) % len(path)]
    lossy_wire.impairment = LinkImpairment(random.Random(w["seed"]), drop_prob=0.03, delay_spike_ns=3_000)
    t = w["t_fault"]
    sim.at(t, victim.set_paused, 0, True)
    sim.at(t + 20_000, victim.set_paused, 0, False)
    sim.at(t + 30_000, victim.cut)
    sim.at(t + 45_000, victim.restore)
    sim.at(t + 60_000, setattr, lossy_wire, "impairment", None)
    sim.run(until=3_000_000)
    ports = [h.port for h in net.hosts] + [p for sw in net.switches for p in sw.ports]
    return sim.probe.on, {
        "now": sim.now,
        "events": sim.events_processed,
        "flows": [(f.fct_ns() if f.done else None, f.retransmits, f.probes_sent) for f in flows],
        "hosts": [(h.rx_bytes, h.rx_packets) for h in net.hosts],
        "switches": [
            {
                "drops": sw.drops,
                "forwarded": sw.forwarded,
                "stats": {k: getattr(sw.buffer.stats, k) for k in type(sw.buffer.stats).__slots__},
                "shared_used": sw.buffer.shared_used,
                "headroom_used": sw.buffer.headroom_used,
                "pfc": sorted(
                    (key, s.bytes, s.pause_sent, s.pauses_sent, s.resumes_sent)
                    for key, s in sw._pfc.items()
                ),
            }
            for sw in net.switches
        ],
        "ports": [
            (p.name, p.tx_bytes_total, p.tx_packets_total, list(p.qbytes), p.total_bytes, p.busy,
             p.dropped_on_cut)
            for p in ports
        ],
        "corrupted": lossy_wire.impairment.corrupted if lossy_wire.impairment else None,
        "acks": acks_seen,
        "pool_live": PACKET_POOL.live - live_before,
    }


def _both_paths(world):
    on, fast = _run_world(world)
    assert not on  # inert probe: the inline common case
    with installed(_Listener()):
        on, general = _run_world(world)
    assert on  # a site subscriber: every hop through the general path
    assert fast == general
    return fast


@given(_WORLDS)
@settings(max_examples=30, deadline=None)
def test_common_case_and_general_path_agree(world):
    _both_paths(world)


def test_common_case_and_general_path_agree_across_every_threshold():
    """The pinned world is not vacuous: PAUSE/RESUME, headroom admission, DT
    refusal with drops, retransmits, ECN marks and INT all happen in it."""
    seen = _both_paths(_PINNED_WORLD)
    sw = seen["switches"][0]
    assert sw["stats"]["admitted_shared"] > 0
    assert sw["stats"]["admitted_headroom"] > 0
    assert sw["stats"]["dropped"] > 0
    assert sum(p[3] for p in sw["pfc"]) > 0 and sum(p[4] for p in sw["pfc"]) > 0
    assert any(f[1] for f in seen["flows"])
    qlens = {hop[0] > 0 for _, hops in seen["acks"] for hop in hops}
    assert qlens == {False, True}  # INT stamped by cut-through and by queued hops
    assert {ecn for ecn, _ in seen["acks"]} == {False, True}


@given(
    st.lists(
        st.tuples(st.integers(0, 3_000), st.integers(0, 2), st.integers(64, 1_500)),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 3_000),
)
@settings(max_examples=50, deadline=None)
def test_unowned_port_cut_through_agrees_with_enqueue_and_kick(arrivals, t_pause):
    """A host-NIC-like port on its own: ECN threshold, INT and a pause window."""

    def run():
        sim, port, sink = make_port(n_queues=3, ecn_k=700, stamp_int=True)
        for seq, (t, prio, size) in enumerate(arrivals):
            packet = pkt(size=size, prio=prio, seq=seq)
            packet.int_hops = []
            sim.at(t, port.enqueue, packet)
        sim.at(t_pause, port.set_paused, 0, True)
        sim.at(t_pause + 400, port.set_paused, 0, False)
        sim.run()
        sent = [
            (p.seq, p.ecn, [(h.qlen, h.tx_bytes, h.ts) for h in p.int_hops])
            for p, _ in sink.received
        ]
        return sent, sim.now, sim.events_processed, port.tx_bytes_total

    fast = run()
    with installed(_Listener()):
        general = run()
    assert fast == general


def _two_packets_one_queued(**pfc):
    """A star switch with one packet on the wire and one queued behind it."""
    sim = Simulator(1)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=1_000_000, pfc=PfcConfig(**pfc))
    net, senders, recv = star(sim, 1, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    sw = net.switches[0]
    for seq in range(2):
        sw.receive(Packet(DATA, 1000, senders[0].node_id, recv.node_id, flow_id=1, seq=seq), 0)
    assert sw.buffer.shared_used == 1000  # the first cut through, the second waits
    return sim, sw


def test_inline_release_keeps_the_shared_pool_assertion():
    sim, sw = _two_packets_one_queued(enabled=False)
    sw.buffer.shared_used = 999
    with pytest.raises(AssertionError, match="shared-pool accounting went negative"):
        sim.run()


def test_inline_release_keeps_the_pfc_backlog_assertion():
    sim, sw = _two_packets_one_queued(enabled=True)
    (state,) = sw._pfc.values()
    assert state.bytes == 1000
    state.bytes = 999
    with pytest.raises(AssertionError, match="PFC ingress accounting went negative"):
        sim.run()


#: Python-level calls per engine event on the run below: 3.45 with the inline
#: common case, 5.94 through the general path.  One call re-added per switch
#: hop costs ~0.4, so the budget sits closer to today's figure than that.
_HOP_CALL_BUDGET = 3.7


def test_hop_call_budget():
    """A count, not a timing: it reads the same on every machine."""
    sim = Simulator(3)
    cfg = SwitchConfig(n_queues=3, buffer_bytes=4 * 1024 * 1024)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, link_delay_ns=1_000, switch_cfg=cfg)
    flows = [
        Flow(i + 1, hosts[i], hosts[(i + 5) % len(hosts)], 60_000, priority=i % 2, start_ns=900 * i)
        for i in range(len(hosts))
    ]
    for f in flows:
        FlowSender(sim, net, f, Swift(SwiftParams(target_scaling=False)), rto_ns=10**10)
    assert not sim.probe.on
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        sim.run(until=50_000_000)
    finally:
        sys.setprofile(None)
    assert all(f.done for f in flows)
    assert calls / sim.events_processed <= _HOP_CALL_BUDGET


def test_cost_ratchet_holds_on_the_cheapest_world():
    """No layer's count rose, in set-up or per event in the run, against
    ``tests/golden/cost_ratchet.json`` (CI ``scale-smoke`` checks all five
    worlds with ``tests/cost_ratchet.py``)."""
    from tests import cost_ratchet

    committed = json.loads(cost_ratchet.GOLDEN_PATH.read_text()).get(cost_ratchet.version_key())
    if committed is None:
        pytest.skip(f"no committed counts for Python {cost_ratchet.version_key()}")
    now = cost_ratchet.measure("sweep_point")
    assert now["events"] == committed["sweep_point"]["events"]
    assert cost_ratchet.rises(committed["sweep_point"], now) == []


# ----------------------------------------------------------------------
# satellite: the ECMP pick cache is bounded
# ----------------------------------------------------------------------
def test_route_cache_is_bounded_and_picks_stay_the_hash(monkeypatch):
    cap = 16
    monkeypatch.setattr(switch_mod, "_ROUTE_CACHE_MAX", cap)
    sim = Simulator(1)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, switch_cfg=SwitchConfig(n_queues=2))
    src, dst = hosts[0], hosts[-1]
    edge = src.port.peer
    routes = edge.routes[dst.node_id]
    assert len(routes) > 1  # a multipath switch
    want = [0] * len(edge.ports)
    for fid in range(1, 10 * cap):
        packet = Packet(DATA, 100, src.node_id, dst.node_id, flow_id=fid)
        edge.receive(packet, 0)
        pick = routes[ecmp_hash(fid, edge.node_id) % len(routes)]
        want[pick] += 1
        assert edge._route_cache[(dst.node_id, fid)] == pick
        assert len(edge._route_cache) <= cap
    got = [p.tx_packets_total + sum(map(len, p.queues.values())) for p in edge.ports]
    assert got == want


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
    log = ChannelLog()
    with installed(Recorder(log)):
        sim, port, sink = make_port(n_queues=4)
        port.enqueue(pkt(size=500, seq=1, prio=1))
        port.enqueue(pkt(size=500, seq=2, prio=1))
        sim.at(200, port.cut)  # mid-transmission of seq 1
        sim.run()
    cut_queue_events = [e for e in log.events["queue"] if e[0] == 200]
    # only queue 1 held packets: untouched queues must not be reported
    assert cut_queue_events == [(200, "p", 1, 0, 0)]
    assert (200, "p", False) in log.events["link"]


def test_cut_when_idle_emits_no_link_event():
    log = ChannelLog()
    with installed(Recorder(log)):
        sim, port, sink = make_port(n_queues=4)
        port.enqueue(pkt(size=100, seq=1))  # tx ends at 100, delivery at 200
        sim.run()  # drain completely: port idle again
        assert not port.busy
        port.cut()
    # idle-at-cut: the only idle link event is the end-of-tx one at t=100
    assert [e for e in log.events["link"] if e[2] is False] == [(100, "p", False)]


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
    p.ctx = object()
    p.int_hops = [IntHop(1, 2, 3, 4.0)]
    pool.release(p)
    q = pool.acquire(DATA, 64, src=9, dst=8, flow_id=7)
    assert q is p  # recycled, not reconstructed
    assert q.size == 64 and q.src == 9 and q.dst == 8 and q.flow_id == 7
    assert q.seq == 0 and q.priority == 0 and q.local_prio == -1
    assert q.ecn is False and q.ecn_echo is False
    assert q.echo_ts == 0 and q.ack_seq == 0
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
