"""World copies: ``copy.deepcopy((sim, roots))`` continues byte-identically.

A deep copy of a simulator and every object reachable from the roots
(network, flows, senders, a staged admitter and the workload stream it
still draws from) is an independent, runnable world: the engine's
state is plain data (an integer clock, a heap ordered by ``(time, seq)``,
a ``random.Random``), dict order survives the copy, and the inert probe
copies to itself.  These properties pin that a copy taken mid-flight runs
on exactly like the original and never perturbs it.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.swift import Swift, SwiftParams
from repro.experiments.launch import FlowAdmitter, run_admitter
from repro.experiments.modes import CCFactory, Mode
from repro.noise import paper_noise
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.topology import fat_tree, star
from repro.transport.flow import Flow
from repro.transport.receiver import Filled
from repro.transport.sender import FlowSender
from repro.workloads import poisson_flows_iter, websearch


def _world(n_flows: int, kb: int, seed: int):
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=4 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    flows, snds = [], []
    for i in range(n_flows):
        f = Flow(i + 1, senders[i], recv, kb * 1000 + i)
        snds.append(FlowSender(sim, net, f, Swift(SwiftParams(target_scaling=False))))
        flows.append(f)
    return sim, net, flows, snds


def _fingerprint(sim, flows, snds) -> tuple:
    """Everything observable that determinism is defined over."""
    return (
        sim.now,
        sim.events_processed,
        sim.rng.random(),
        tuple((f.done, f.fct_ns() if f.done else None) for f in flows),
        tuple((s.acked_payload, s.snd_nxt, s.cc.cwnd) for s in snds),
    )


def _run_out(sim, until=2_000_000_000):
    sim.run(until=until)
    return sim


def _copy(sim, *roots):
    """One deep copy of ``sim`` and ``roots``, as ``(sim, *roots)``."""
    sim2, roots2 = copy.deepcopy((sim, roots))
    return (sim2,) + roots2


@given(
    n_flows=st.integers(1, 4),
    kb=st.integers(2, 120),
    seed=st.integers(0, 2**31),
    prefix_ns=st.integers(0, 400_000),
)
@settings(max_examples=20, deadline=None)
def test_property_snapshot_restore_rerun_is_byte_identical(
    n_flows, kb, seed, prefix_ns
):
    """copy → run → copy the copy → rerun reproduces the original exactly."""
    sim, net, flows, snds = _world(n_flows, kb, seed)
    sim.run(until=prefix_ns)  # arbitrary mid-flight instant

    snap = _copy(sim, net, flows, snds)

    # run the original to completion
    _run_out(sim)
    want = _fingerprint(sim, flows, snds)

    # first clone of the kept copy: must land on the identical fingerprint
    sim2, _net2, flows2, snds2 = _copy(*snap)
    _run_out(sim2)
    assert _fingerprint(sim2, flows2, snds2) == want

    # the kept copy is not consumed: a second clone agrees byte-for-byte
    sim3, _net3, flows3, snds3 = _copy(*snap)
    _run_out(sim3)
    assert _fingerprint(sim3, flows3, snds3) == want


@given(n_flows=st.integers(1, 3), kb=st.integers(2, 60), seed=st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_property_world_copy_isolates_the_clone(n_flows, kb, seed):
    """Running a fork never perturbs the original (and vice versa)."""
    sim, net, flows, snds = _world(n_flows, kb, seed)
    sim.run(until=20_000)

    sim2, _net2, flows2, snds2 = _copy(sim, net, flows, snds)
    before = (sim.now, sim.events_processed)
    _run_out(sim2)  # drive only the clone
    assert (sim.now, sim.events_processed) == before  # original untouched

    _run_out(sim)
    assert _fingerprint(sim, flows, snds) == _fingerprint(sim2, flows2, snds2)


def test_fork_holds_unstarted_live_and_finished_flows():
    """A flow's bitmaps are one shared read-only sequence before its start
    and after its finish, and real ones in between; a fork taken with all
    three kinds reruns exactly like the original, and the shared sequence
    stays shared and read-only in the copy."""
    sim = Simulator(11)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=4 * 1024 * 1024)
    net, hosts, recv = star(sim, 3, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    shapes = [(2_000, 0), (300_000, 0), (50_000, 1_000_000)]  # (bytes, start)
    flows = [Flow(i + 1, hosts[i], recv, size, start_ns=t) for i, (size, t) in enumerate(shapes)]
    snds = [FlowSender(sim, net, f, Swift(SwiftParams(target_scaling=False))) for f in flows]
    sim.run(until=100_000)
    finished, live, unstarted = snds
    assert finished.completed and live.started and not live.completed and not unstarted.started

    sim2, _net2, flows2, snds2 = _copy(sim, net, flows, snds)
    finished2, live2, unstarted2 = snds2
    for s, bit in ((finished2, 1), (unstarted2, 0)):
        assert s.sent is s.acked is s.receiver.received
        assert isinstance(s.sent, Filled) and bytes(s.sent) == bytes((bit,)) * s.n_packets
        with pytest.raises(TypeError):
            s.sent[0] = 1 - bit
        with pytest.raises(TypeError):
            s.receiver.received[0:2] = b"\x00\x00"
    assert bytes(pickle.loads(pickle.dumps(unstarted2.acked))) == bytes(unstarted.acked)
    assert bytes(live2.sent) == bytes(live.sent) and live2.sent is not live.sent
    assert isinstance(live2.receiver.received, bytearray)

    _run_out(sim2)
    _run_out(sim)
    assert _fingerprint(sim2, flows2, snds2) == _fingerprint(sim, flows, snds)
    assert all(f.done for f in flows2)


def test_snapshot_as_topology_reset_cache():
    """Copy-per-run of one pristine world is deterministic: two runs from
    one kept copy agree exactly."""
    snap = _world(3, 40, 7)
    runs = []
    for _ in range(2):
        s, _n, fl, sn = _copy(*snap)
        _run_out(s)
        runs.append(_fingerprint(s, fl, sn))
    assert runs[0] == runs[1]
    assert all(done for done, _ in runs[0][3])


class _Completions:
    """The admitter's ``on_flow_done`` sink; a plain object, so a fork
    records into its own copy."""

    def __init__(self):
        self.rows = []

    def add(self, flow):
        self.rows.append((flow.flow_id, flow.src.node_id, flow.size_bytes, flow.fct_ns()))


def _streaming_world():
    """A k=4 fat-tree fed by a lazily drawn Poisson stream through the
    staged admitter: the shape of the streaming experiments."""
    sim = Simulator(5)
    factory = CCFactory(Mode.PRIOPLUS, n_priorities=4)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, switch_cfg=factory.switch_config())
    cdf = websearch(0.05)
    stream = poisson_flows_iter(random.Random(3), len(hosts), cdf, 0.6, 10e9, 200_000)
    done = _Completions()
    admitter = FlowAdmitter(
        sim, net, stream, hosts, factory, lambda spec: spec.size_bytes % 4,
        noise=paper_noise(), horizon_ns=20_000, on_flow_done=done.add,
    )
    return sim, net, admitter, done


def test_fork_a_streaming_world_mid_run():
    """A world whose workload is still being drawn forks like any other:
    the fork and the original admit the same remaining arrivals and
    finish byte-identically."""
    sim, net, admitter, done = _streaming_world()
    sim.run(until=100_000)
    assert 0 < admitter.n_admitted and not admitter.exhausted

    sim2, net2, admitter2, done2 = _copy(sim, net, admitter, done)
    assert run_admitter(sim2, admitter2, 50_000_000)
    assert run_admitter(sim, admitter, 50_000_000)
    assert admitter2.n_done == admitter.n_done == admitter.n_admitted == len(done.rows)
    assert done2.rows == done.rows and done2.rows is not done.rows
    assert (sim2.now, sim2.events_processed, sim2.rng.random()) == (
        sim.now, sim.events_processed, sim.rng.random()
    )
    assert net2.total_drops() == net.total_drops()
