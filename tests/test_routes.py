"""ECMP route tables: one BFS per attachment switch, equal to the per-host BFS.

``Network`` builds the tables toward every host under a switch from one BFS
from that switch.  ``tests/routes_reference.py`` keeps the per-host BFS it
replaced; every table here must equal it with ``==``, insertion order
included, on every topology builder, the hand-built fault fabrics, hosts
wired back to back, and after seeded link cuts in one or both directions.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.fault_experiments import _degrade_fabric, _flap_fabric
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.switch import Switch, SwitchConfig
from repro.topology import fat_tree, leaf_spine, multi_rack, paper_fabric, star
from tests import routes_reference


def _back_to_back(sim):
    # two hosts on one switch, and two more wired to each other directly
    net = Network(sim, SwitchConfig())
    sw = net.add_switch("sw")
    for i in range(2):
        net.connect(net.add_host(f"h{i}"), sw, 10e9, 1_000)
    a, b = net.add_host("a"), net.add_host("b")
    net.connect(a, b, 10e9, 1_000)
    net.build_routes()
    return net


FABRICS = {
    "star": lambda sim: star(sim, 4)[0],
    "fat_tree4": lambda sim: fat_tree(sim, k=4)[0],
    "fat_tree6": lambda sim: fat_tree(sim, k=6)[0],
    "paper_fabric": lambda sim: paper_fabric(sim)[0],
    "leaf_spine": lambda sim: leaf_spine(
        sim, n_leaves=4, hosts_per_leaf=6, n_spines=3, host_rate_bps=100e9, oversubscription=2.0,
        link_delay_ns=1_000, switch_cfg=SwitchConfig(),
    )[0],
    "multi_rack": lambda sim: multi_rack(
        sim, n_racks=5, hosts_per_rack=8, host_rate_bps=100e9, core_rate_bps=400e9,
        link_delay_ns=1_000, switch_cfg=SwitchConfig(),
    )[0],
    "fault_flap": lambda sim: _flap_fabric(sim, SwitchConfig(), 10e9)[0],
    "fault_degrade": lambda sim: _degrade_fabric(sim, SwitchConfig(), 10e9)[0],
    "back_to_back": _back_to_back,
}


def _tables(net):
    return [list(switch.routes.items()) for switch in net.switches]


def _assert_matches_reference(net):
    shipped = _tables(net)
    routes_reference.rebuild_routes(net)
    assert shipped == _tables(net)


def _links(net):
    """Every full-duplex link once, as its two endpoints."""
    return [
        (node, peer)
        for node in net.nodes
        for _, peer in net._adj[node.node_id]
        if node.node_id < peer.node_id
    ]


def _cut(net, rng, links):
    """Cut a seeded handful of links: both directions, or one egress port."""
    for a, b in rng.sample(links, rng.randint(1, 1 + len(links) // 8)):
        if rng.random() < 0.5:
            net.set_link_state(a, b, up=False)
        else:
            src, dst = (a, b) if rng.random() < 0.5 else (b, a)
            next(port for port, peer in net._adj[src.node_id] if peer is dst).down = True


def _restore_all(net):
    for node in net.nodes:
        for port, _ in net._adj[node.node_id]:
            if port.down:
                port.restore()


@pytest.mark.parametrize("fabric", FABRICS)
def test_route_tables_match_the_per_host_reference(fabric):
    net = FABRICS[fabric](Simulator(1))
    _assert_matches_reference(net)
    links = _links(net)
    for seed in range(20):
        _cut(net, random.Random(seed), links)
        net.rebuild_routes()
        _assert_matches_reference(net)
        _restore_all(net)
    net.rebuild_routes()
    _assert_matches_reference(net)


def test_hosts_under_one_edge_share_their_route_lists():
    net, hosts = paper_fabric(Simulator(1))
    edge = hosts[0].port.peer
    mates = [h for h in hosts if h.port.peer is edge]
    assert len(mates) == 18
    core = next(s for s in net.switches if s.name.startswith("core"))
    assert core.routes[mates[0].node_id] is core.routes[mates[1].node_id]
    for host in hosts:
        (idx,) = host.port.peer.routes[host.node_id]
        assert host.port.peer.ports[idx].peer is host


def test_edge_uplink_cut_reroutes_every_pair_and_restores():
    net, hosts = paper_fabric(Simulator(1))
    before = _tables(net)
    edge = hosts[0].port.peer
    agg = next(peer for _, peer in net._adj[edge.node_id] if isinstance(peer, Switch))
    cut = {port for port, peer in net._adj[edge.node_id] if peer is agg}
    cut |= {port for port, peer in net._adj[agg.node_id] if peer is edge}
    assert not cut.isdisjoint(net.path_ports(hosts[0], hosts[-1]))
    net.set_link_state(edge, agg, up=False)
    net.rebuild_routes()
    for src in hosts:
        for dst in hosts:
            if src is not dst:  # path_ports raises if a pair lost its path
                assert cut.isdisjoint(net.path_ports(src, dst))
    net.set_link_state(edge, agg, up=True)
    net.rebuild_routes()
    assert _tables(net) == before
