"""Link-failure handling: cut, reroute, recover."""

import pytest

from repro.cc import Swift, SwiftParams
from repro.cc.base import CongestionControl
from repro.sim.engine import Simulator
from repro.sim.packet import PACKET_POOL
from repro.sim.switch import SwitchConfig
from repro.topology import fat_tree, star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender


def test_cut_drops_queued_packets_and_releases_buffer():
    sim = Simulator(1)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    for i in range(2):  # 2x10G into 1x10G builds a real switch queue
        flow = Flow(i + 1, senders[i], recv, 200_000)
        FlowSender(sim, net, flow, CongestionControl(init_cwnd_bytes=200_000), rto_ns=10**12)
    sim.run(until=60_000)
    sw = net.switches[0]
    used_before = sw.buffer.shared_used
    assert used_before > 0
    dropped = net.set_link_state(sw, recv, up=False)
    assert dropped > 0
    assert sw.buffer.shared_used < used_before  # accounting released


def test_unknown_link_rejected():
    sim = Simulator(1)
    net, senders, recv = star(sim, 2, switch_cfg=SwitchConfig(n_queues=2))
    with pytest.raises(ValueError):
        net.set_link_state(senders[0], senders[1], up=False)


def test_flow_survives_core_link_failure_on_fat_tree():
    """Cut one core link mid-flow: ECMP reroute + RTO recovery completes it."""
    sim = Simulator(5)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, switch_cfg=cfg)
    src, dst = hosts[0], hosts[-1]
    flow = Flow(1, src, dst, 2_000_000)
    FlowSender(sim, net, flow, Swift(SwiftParams(target_scaling=False)), rto_ns=300_000)
    sim.run(until=100_000)
    assert not flow.done

    # cut the core link the flow is currently using (first core adjacency
    # of the aggregation switch on its path)
    path = net.path_ports(src, dst)
    agg_port = path[2]  # host -> edge -> agg -> core
    core = agg_port.peer
    agg = [s for s in net.switches if agg_port in s.ports][0]
    net.set_link_state(agg, core, up=False)
    net.rebuild_routes()

    sim.run(until=3_000_000_000)
    assert flow.done  # rerouted + retransmitted

    # restore and verify routes come back
    net.set_link_state(agg, core, up=True)
    net.rebuild_routes()
    flow2 = Flow(2, src, dst, 100_000)
    FlowSender(sim, net, flow2, Swift(SwiftParams(target_scaling=False)))
    sim.run(until=sim.now + 500_000_000)
    assert flow2.done


def test_cut_mid_flight_leaks_no_packets_both_directions():
    """Cut a link with packets queued in *both* directions: every dropped
    packet must return to the pool, and RTO recovery completes all flows."""
    live_before = PACKET_POOL.live
    sim = Simulator(3)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=1_000, switch_cfg=cfg)
    flows = [
        Flow(1, senders[0], recv, 150_000),  # incast: queue on switch->recv
        Flow(2, senders[1], recv, 150_000),
        Flow(3, recv, senders[0], 150_000),  # reverse: queue on recv's NIC
    ]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=150_000), rto_ns=300_000)
    sim.run(until=30_000)
    sw = net.switches[0]
    sw_to_recv = net.path_ports(senders[0], recv)[-1]
    recv_to_sw = net.path_ports(recv, senders[0])[0]
    assert sum(sw_to_recv.qbytes) > 0 and sum(recv_to_sw.qbytes) > 0
    dropped = net.set_link_state(sw, recv, up=False)
    assert dropped > 0
    sim.run(until=120_000)  # RTOs fire into the dead link
    net.set_link_state(sw, recv, up=True)
    sim.run(until=10_000_000_000)
    assert all(f.done for f in flows)
    sim.run()  # drain trailing ACK deliveries
    assert PACKET_POOL.live == live_before


def test_flap_while_pfc_paused_link_recovers():
    """Cut + restore a link whose egress class is PFC-paused throughout.

    The pause must gate transmission across the flap (restore does not leak
    paused traffic), and releasing the pause lets RTO recovery finish."""
    sim = Simulator(13)
    cfg = SwitchConfig(n_queues=4, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    flow = Flow(1, senders[0], recv, 100_000, priority=0)
    FlowSender(sim, net, flow, CongestionControl(init_cwnd_bytes=100_000), rto_ns=300_000)
    bottleneck = net.path_ports(senders[0], recv)[-1]
    sim.at(10_000, bottleneck.set_paused, 0, True)
    sim.run(until=20_000)
    assert bottleneck.paused[0] and sum(bottleneck.qbytes) > 0
    sw = net.switches[0]
    dropped = net.set_link_state(sw, recv, up=False)  # cut while paused
    assert dropped > 0
    sim.run(until=40_000)
    assert net.set_link_state(sw, recv, up=True) == 0  # flap back up, still paused
    rx_at_restore = recv.rx_packets
    sim.run(until=200_000)
    assert recv.rx_packets == rx_at_restore  # pause survives the flap
    bottleneck.set_paused(0, False)
    sim.run(until=10_000_000_000)
    assert flow.done


def test_reroute_excludes_down_links():
    sim = Simulator(1)
    cfg = SwitchConfig(n_queues=2)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, switch_cfg=cfg)
    src, dst = hosts[0], hosts[-1]
    path = net.path_ports(src, dst)
    agg_port = path[2]
    core = agg_port.peer
    agg = [s for s in net.switches if agg_port in s.ports][0]
    routes_before = len(agg.routes[dst.node_id])
    net.set_link_state(agg, core, up=False)
    net.rebuild_routes()
    down_idx = agg.ports.index(agg_port)
    assert down_idx not in agg.routes.get(dst.node_id, [])
    assert len(agg.routes[dst.node_id]) == routes_before - 1
