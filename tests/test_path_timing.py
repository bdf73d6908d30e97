"""Path timing from the fabric's structure, equal to the walk it replaced.

``Network.base_rtt_ns`` and ``Network.bottleneck_rate_bps`` serve every
sender from a memo keyed by attachment switches and hosts.
``tests/path_timing_reference.py`` keeps the per-call walk; every value here
must equal it with ``==`` on every topology builder, after link cuts and a
reroute, and after a link degrade and its restore.  A second pass over the
same pairs must not walk at all, the memo must stay the size of the fabric
however many pairs a trace binds, and a sender built on a warm memo walks
no path.
"""

from __future__ import annotations

import random

from repro.core.channels import ChannelConfig
from repro.core.prioplus import PrioPlusCC
from repro.cc.swift import Swift, SwiftParams
from repro.experiments.launch import bind_flow
from repro.experiments.modes import CCFactory, Mode
from repro.faults.actors import LinkDegradeActor, _link_ports
from repro.sim.engine import Simulator
from repro.sim.packet import HEADER_BYTES, MIN_PACKET_BYTES
from repro.sim.switch import Switch
from repro.topology import fat_tree, paper_fabric
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from repro.workloads import FlowSpec
from tests import path_timing_reference as walk
from tests.test_routes import FABRICS, _cut, _links, _restore_all

import pytest

#: the (data, ACK) sizes a sender times its path at: data and probe RTT
SIZES = ((1000 + HEADER_BYTES, MIN_PACKET_BYTES), (MIN_PACKET_BYTES, MIN_PACKET_BYTES))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RuntimeError, AttributeError) as exc:  # no path, or no NIC
        return ("raises", type(exc).__name__, str(exc))


def _timings(net, src, dst):
    return [_outcome(net.base_rtt_ns, src, dst, data) for data, _ in SIZES] + [
        _outcome(net.bottleneck_rate_bps, src, dst)
    ]


def _walked(net, src, dst):
    return [_outcome(walk.base_rtt_ns, net, src, dst, *sizes) for sizes in SIZES] + [
        _outcome(walk.bottleneck_rate_bps, net, src, dst)
    ]


def _count_walks(net):
    calls = []
    path_ports = net.path_ports

    def counted(*args, **kwargs):
        calls.append(args)
        return path_ports(*args, **kwargs)

    net.path_ports = counted
    return calls


def _on_a_switch(host):
    edge = host.port.peer if host.port is not None else None
    return isinstance(edge, Switch) and bool(edge.routes.get(host.node_id))


def _assert_timing_is_the_walk(net, pairs):
    """Two passes over ``pairs``, each value ``==`` the walk's; on the second
    every pair of switch-attached hosts with a path is served unwalked."""
    calls = _count_walks(net)
    try:
        for warm in (False, True):
            for src, dst in pairs:
                before = len(calls)
                got = _timings(net, src, dst)
                walks = len(calls) - before
                want = _walked(net, src, dst)
                assert got == want, (src.name, dst.name)
                served = _on_a_switch(src) and _on_a_switch(dst)
                if warm and served and not any(isinstance(v, tuple) for v in want):
                    assert walks == 0, (src.name, dst.name)
    finally:
        del net.path_ports


def _pairs(net, rng, limit=500):
    pairs = [(src, dst) for src in net.hosts for dst in net.hosts]
    return pairs if len(pairs) <= limit else rng.sample(pairs, limit)


@pytest.mark.parametrize("fabric", FABRICS)
def test_path_timing_is_the_walk_on_every_fabric(fabric):
    net = FABRICS[fabric](Simulator(1))
    rng = random.Random(7)
    loose = net.add_host("loose")  # never wired: no NIC at all
    pairs = _pairs(net, rng) + [(loose, net.hosts[0]), (net.hosts[0], loose)]
    _assert_timing_is_the_walk(net, pairs)
    links = _links(net)
    for seed in range(3):
        _cut(net, random.Random(seed), links)
        net.rebuild_routes()
        _assert_timing_is_the_walk(net, pairs)
        _restore_all(net)
        net.rebuild_routes()
        _assert_timing_is_the_walk(net, pairs)
    # a degrade moves serialisation rates with no reroute: the memo must
    # forget them at the degrade and again at its restore
    degraded = [p for a, b in rng.sample(links, min(10, len(links))) for p in _link_ports(net, a, b)]
    actor = LinkDegradeActor(degraded, 0.25, 0.0, 0, random.Random(0))
    actor.inject()
    _assert_timing_is_the_walk(net, pairs)
    actor.clear()
    _assert_timing_is_the_walk(net, pairs)


def test_path_memo_is_bounded_by_the_fabric_not_the_pairs():
    sim = Simulator(1)
    net, hosts = paper_fabric(sim)
    edges = list(dict.fromkeys(h.port.peer for h in hosts))
    under = {edge: [h for h in hosts if h.port.peer is edge] for edge in edges}
    index = {h: i for i, h in enumerate(hosts)}
    factory = CCFactory(Mode.PRIOPLUS, n_priorities=2)
    # a real binding for one host pair per ordered pair of attachment
    # switches ...
    fid = 0
    for a in edges:
        for b in edges:
            fid += 1
            src, dst = under[a][fid % len(under[a])], under[b][(fid + 1) % len(under[b])]
            spec = FlowSpec(index[src], index[dst], 10_000, 0)
            bind_flow(sim, net, spec, fid, hosts, factory, lambda spec: 0)
    # ... and, for every other host pair, what its binding asks of the
    # network (binding 102 080 senders would hold ~300 MB)
    for src in hosts:
        for dst in hosts:
            for data, _ in SIZES:
                net.base_rtt_ns(src, dst, data)
            net.bottleneck_rate_bps(src, dst)
    # a host's share is keyed by (out, in) sizes, so a host that both sends
    # and receives holds each size pair in both orders; and one rate entry
    variants = len(set(SIZES) | {(ack, data) for data, ack in SIZES}) + 1
    assert len(net._path_memo) <= (len(edges) ** 2 + len(hosts)) * variants


def _prioplus_sender(sim, net, fid, src, dst):
    cc = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), ChannelConfig(n_priorities=1), 1)
    return FlowSender(sim, net, Flow(fid, src, dst, 100_000, vpriority=1), cc)


def test_a_sender_on_a_warm_memo_walks_no_path():
    """A count, not a timing: a sender used to walk its path five times."""
    sim = Simulator(1)
    net, hosts = fat_tree(sim, k=4)
    _prioplus_sender(sim, net, 1, hosts[0], hosts[-1])  # warms both hosts and edges
    calls = _count_walks(net)
    sender = _prioplus_sender(sim, net, 2, hosts[0], hosts[-1])
    assert calls == []
    # another host pair under the same two edges shares the memo's middle
    assert hosts[1].port.peer is hosts[0].port.peer
    _prioplus_sender(sim, net, 3, hosts[1], hosts[-2])
    assert calls == []
    spec = FlowSpec(0, len(hosts) - 1, 10_000, 0)
    bind_flow(sim, net, spec, 5, hosts, CCFactory(Mode.PRIOPLUS, n_priorities=2), lambda spec: 0)
    assert calls == []
    assert sender.base_rtt == walk.base_rtt_ns(net, hosts[0], hosts[-1])
