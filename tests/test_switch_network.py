"""Switch forwarding, routing, buffer/PFC integration, and Network math."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import DATA, MIN_PACKET_BYTES, Packet
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig, ecmp_hash
from repro.topology import fat_tree, leaf_spine, multi_rack, star


def test_star_delivers_between_hosts():
    sim = Simulator()
    net = Network(sim, SwitchConfig(n_queues=2))
    sw = net.add_switch()
    h1 = net.add_host()
    h2 = net.add_host()
    net.connect(h1, sw, 10e9, 100)
    net.connect(h2, sw, 10e9, 100)
    net.build_routes()
    p = Packet(DATA, 1000, src=h1.node_id, dst=h2.node_id, flow_id=1)
    h1.send(p)
    sim.run()
    assert h2.rx_packets == 1


def test_base_rtt_accounts_for_serialisation_and_propagation():
    sim = Simulator()
    net = Network(sim, SwitchConfig(n_queues=2))
    sw = net.add_switch()
    h1, h2 = net.add_host(), net.add_host()
    net.connect(h1, sw, 8e9, 1000)  # 1 byte/ns
    net.connect(h2, sw, 8e9, 1000)
    net.build_routes()
    rtt = net.base_rtt_ns(h1, h2, data_bytes=1000)
    # forward: 2 hops x (1000 prop + 1000 tx); reverse: 2 x (1000 + a
    # minimum-size ACK)
    assert rtt == 2 * 2000 + 2 * (1000 + MIN_PACKET_BYTES)


def test_bottleneck_rate():
    sim = Simulator()
    net = Network(sim, SwitchConfig(n_queues=2))
    sw = net.add_switch()
    h1, h2 = net.add_host(), net.add_host()
    net.connect(h1, sw, 100e9, 100)
    net.connect(h2, sw, 10e9, 100)
    net.build_routes()
    assert net.bottleneck_rate_bps(h1, h2) == 10e9


def test_unroutable_packet_blackholes():
    sim = Simulator()
    net = Network(sim, SwitchConfig(n_queues=2))
    sw = net.add_switch()
    h1 = net.add_host()
    net.connect(h1, sw, 10e9, 100)
    net.build_routes()
    p = Packet(DATA, 100, src=h1.node_id, dst=999, flow_id=1)
    h1.send(p)
    sim.run()
    assert sw.drops == 1
    assert sw.buffer.stats.dropped_by_reason == {"blackhole": 1}


def test_switch_drops_when_buffer_full_lossy():
    sim = Simulator()
    cfg = SwitchConfig(n_queues=2, buffer_bytes=3000, pfc=PfcConfig(enabled=False))
    net = Network(sim, cfg)
    sw = net.add_switch()
    h1, h2 = net.add_host(), net.add_host()
    net.connect(h1, sw, 100e9, 100)
    net.connect(h2, sw, 1e9, 100)  # slow egress builds queue
    net.build_routes()
    for i in range(20):
        h1.send(Packet(DATA, 1000, src=h1.node_id, dst=h2.node_id, flow_id=1, seq=i))
    sim.run()
    assert sw.drops > 0
    assert h2.rx_packets + sw.drops == 20


def test_pfc_prevents_drops_with_headroom():
    sim = Simulator()
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=64_000,
        headroom_per_port_per_prio=8_000,
        pfc=PfcConfig(enabled=True, xoff_bytes=4_000, dynamic=False),
    )
    net = Network(sim, cfg)
    sw = net.add_switch()
    h1, h2 = net.add_host(), net.add_host()
    net.connect(h1, sw, 100e9, 100)
    net.connect(h2, sw, 1e9, 100)
    net.build_routes()
    for i in range(40):
        h1.send(Packet(DATA, 1000, src=h1.node_id, dst=h2.node_id, flow_id=1, seq=i))
    sim.run()
    assert sw.drops == 0
    assert sw.pfc_pause_count() > 0
    assert h2.rx_packets == 40


def test_ideal_headroom_does_not_shrink_shared_pool():
    sim = Simulator()
    cfg = SwitchConfig(
        n_queues=4, buffer_bytes=100_000, headroom_per_port_per_prio=10_000, ideal_headroom=True
    )
    net = Network(sim, cfg)
    sw = net.add_switch()
    h1, h2 = net.add_host(), net.add_host()
    net.connect(h1, sw, 10e9, 100)
    net.connect(h2, sw, 10e9, 100)
    net.build_routes()
    assert sw.buffer.shared_capacity == 100_000
    assert sw.buffer.headroom_capacity > 0


def test_real_headroom_shrinks_shared_pool():
    sim = Simulator()
    cfg = SwitchConfig(
        n_queues=4, buffer_bytes=100_000, headroom_per_port_per_prio=10_000, n_lossless=2
    )
    net = Network(sim, cfg)
    sw = net.add_switch()
    h1, h2 = net.add_host(), net.add_host()
    net.connect(h1, sw, 10e9, 100)
    net.connect(h2, sw, 10e9, 100)
    net.build_routes()
    # 2 ports x 2 lossless x 10k = 40k headroom
    assert sw.buffer.shared_capacity == 60_000


def test_ecmp_hash_deterministic_and_spread():
    a = ecmp_hash(1, 2)
    assert a == ecmp_hash(1, 2)
    values = {ecmp_hash(f, 7) % 4 for f in range(200)}
    assert values == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# topology builders
# ----------------------------------------------------------------------
def test_fat_tree_shape_k4():
    sim = Simulator()
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9)
    assert len(hosts) == 16
    assert len(net.switches) == 4 + 4 * 4  # 4 cores + (2 agg + 2 edge) x 4 pods
    # every host pair routable, same-pod and cross-pod
    rtt_same = net.base_rtt_ns(hosts[0], hosts[1])
    rtt_cross = net.base_rtt_ns(hosts[0], hosts[-1])
    assert rtt_cross > rtt_same


def test_fat_tree_rejects_odd_k():
    with pytest.raises(ValueError):
        fat_tree(Simulator(), k=3)


def test_fat_tree_hosts_per_edge_override():
    sim = Simulator()
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, hosts_per_edge=[3, 1, 2, 2, 4, 1, 2, 2])
    assert len(hosts) == 17
    rtt = net.base_rtt_ns(hosts[0], hosts[-1])
    assert rtt > 0


def test_fat_tree_hosts_per_edge_validation():
    with pytest.raises(ValueError):
        fat_tree(Simulator(), k=4, hosts_per_edge=[2, 2, 2])  # wrong length
    with pytest.raises(ValueError):
        fat_tree(Simulator(), k=4, hosts_per_edge=[2, 2, 2, 2, 2, 2, 2, 0])


def test_paper_fabric_is_the_papers_scale():
    from repro.topology import paper_fabric
    from repro.topology.builders import PAPER_FABRIC_HOSTS

    sim = Simulator()
    net, hosts = paper_fabric(sim)
    assert len(hosts) == PAPER_FABRIC_HOSTS == 320
    # k=6 switching layers: 9 cores + 18 agg + 18 edge
    assert len(net.switches) == 9 + 18 + 18
    # base RTT across the core lands near the paper's ~12 µs figure
    rtt = net.base_rtt_ns(hosts[0], hosts[-1])
    assert 8_000 <= rtt <= 20_000
    # cross-fabric pairs are routable from both ends
    assert net.path_ports(hosts[0], hosts[-1])
    assert net.path_ports(hosts[-1], hosts[0])


def test_path_ports_flow_id_matches_packet_forwarding():
    """path_ports(flow_id=) must walk the exact ECMP path the packet takes."""
    sim = Simulator()
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9)
    src, dst = hosts[0], hosts[-1]
    for flow_id in (1, 2, 7, 40):
        path = net.path_ports(src, dst, flow_id=flow_id)
        before = [p.tx_packets_total for p in path]
        src.send(Packet(DATA, 1000, src=src.node_id, dst=dst.node_id, flow_id=flow_id))
        sim.run()
        after = [p.tx_packets_total for p in path]
        assert [b + 1 for b in before] == after, f"flow {flow_id} left the predicted path"
    # different flows between the same pair do spread over distinct paths
    paths = {tuple(id(p) for p in net.path_ports(src, dst, flow_id=f)) for f in range(40)}
    assert len(paths) > 1


def test_leaf_spine_oversubscription():
    sim = Simulator()
    net, hosts = leaf_spine(
        sim, n_leaves=2, hosts_per_leaf=4, n_spines=2, host_rate_bps=100e9, oversubscription=2.0,
        link_delay_ns=1_000, switch_cfg=SwitchConfig(),
    )
    assert len(hosts) == 8
    # total uplink per leaf = 4 x 100G / 2 = 200G across 2 spines
    cross = net.bottleneck_rate_bps(hosts[0], hosts[-1])
    assert cross == pytest.approx(100e9)


def test_multi_rack_routes_and_core_rate():
    sim = Simulator()
    net, hosts = multi_rack(
        sim, n_racks=2, hosts_per_rack=3, host_rate_bps=10e9, core_rate_bps=40e9,
        link_delay_ns=1_000, switch_cfg=SwitchConfig(),
    )
    assert len(hosts) == 6
    assert net.bottleneck_rate_bps(hosts[0], hosts[3]) == 10e9


def test_star_bottleneck_is_receiver_link():
    sim = Simulator()
    net, senders, recv = star(sim, 3, rate_bps=10e9)
    for s in senders:
        assert net.bottleneck_rate_bps(s, recv) == 10e9
