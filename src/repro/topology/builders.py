"""Topology builders for every scenario in the paper's evaluation (§6).

* :func:`star` — N senders, one receiver, one bottleneck switch port
  (micro-benchmarks, §3 and §6.1; also the Fig 8 testbed tree).
* :func:`fat_tree` — standard k-ary fat-tree (flow-scheduling scenario).
* :func:`leaf_spine` — leaf/spine with a configurable oversubscription
  ratio (ML-training scenario, CASSINI-style).
* :func:`multi_rack` — hosts under ToRs joined by a non-blocking core with
  faster inter-switch links (coflow scenario: 100 G host links, 400 G core).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.host import Host
from ..sim.network import Network
from ..sim.switch import SwitchConfig

__all__ = ["star", "fat_tree", "leaf_spine", "multi_rack", "paper_fabric"]


def star(
    sim: Simulator,
    n_senders: int,
    rate_bps: float = 100e9,
    link_delay_ns: int = 1_000,
    switch_cfg: Optional[SwitchConfig] = None,
) -> Tuple[Network, List[Host], Host]:
    """N senders -> one switch -> one receiver (the bottleneck port).

    With the paper's micro-benchmark parameters (100 Gbps, per-hop 3 µs the
    base RTT lands near the typical 12 µs datacenter figure).
    """
    net = Network(sim, switch_cfg or SwitchConfig())
    sw = net.add_switch(name="bottleneck")
    senders = [net.add_host(name=f"s{i}") for i in range(n_senders)]
    receiver = net.add_host(name="recv")
    for host in senders:
        net.connect(host, sw, rate_bps, link_delay_ns)
    net.connect(receiver, sw, rate_bps, link_delay_ns)
    net.build_routes()
    return net, senders, receiver


def fat_tree(
    sim: Simulator,
    k: int = 4,
    rate_bps: float = 100e9,
    link_delay_ns: int = 1_000,
    switch_cfg: Optional[SwitchConfig] = None,
    hosts_per_edge: Optional[List[int]] = None,
) -> Tuple[Network, List[Host]]:
    """Standard k-ary fat-tree: (k/2)^2 cores, k pods, (k/2)^2 hosts per pod.

    ``hosts_per_edge`` overrides the standard k/2 hosts under each of the
    k²/2 edge switches (one entry per edge, pod-major order) — the paper's
    flow-scheduling fabric packs 320 hosts under a k=6 tree this way.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("fat-tree k must be even and >= 2")
    half = k // 2
    n_edges = k * half
    if hosts_per_edge is not None:
        if len(hosts_per_edge) != n_edges:
            raise ValueError(
                f"hosts_per_edge needs one entry per edge switch "
                f"({n_edges} for k={k}), got {len(hosts_per_edge)}"
            )
        if any(n < 1 for n in hosts_per_edge):
            raise ValueError("hosts_per_edge entries must be >= 1")
    net = Network(sim, switch_cfg or SwitchConfig())
    cores = [[net.add_switch(name=f"core{i}_{j}") for j in range(half)] for i in range(half)]
    hosts: List[Host] = []
    links = 0
    for pod in range(k):
        aggs = [net.add_switch(name=f"agg{pod}_{a}") for a in range(half)]
        edges = [net.add_switch(name=f"edge{pod}_{e}") for e in range(half)]
        for a, agg in enumerate(aggs):
            for edge in edges:
                net.connect(agg, edge, rate_bps, link_delay_ns)
            for j in range(half):
                net.connect(cores[a][j], agg, rate_bps, link_delay_ns)
            links += 2 * half
        for e, edge in enumerate(edges):
            n_here = half if hosts_per_edge is None else hosts_per_edge[pod * half + e]
            for h in range(n_here):
                host = net.add_host(name=f"h{pod}_{e}_{h}")
                hosts.append(host)
                net.connect(host, edge, rate_bps, link_delay_ns)
                links += 1
    # structural self-check: the standard formulas pin host/switch/link counts
    want_hosts = (
        k * half * half if hosts_per_edge is None else sum(hosts_per_edge)
    )
    want_switches = half * half + k * 2 * half
    want_links = k * (2 * half * half) + want_hosts
    n_switches = sum(1 for n in net.nodes if not isinstance(n, Host))
    if len(hosts) != want_hosts or n_switches != want_switches or links != want_links:
        raise AssertionError(
            f"fat_tree(k={k}) built {len(hosts)} hosts / {n_switches} switches "
            f"/ {links} links, expected {want_hosts} / {want_switches} / {want_links}"
        )
    net.build_routes()
    return net, hosts


#: the paper's flow-scheduling fabric (§6.1): 320 hosts on a k=6 tree
PAPER_FABRIC_HOSTS = 320
#: Broadcom-style shared buffer sizing: 4.4 MB of chip buffer per Tbps
PAPER_BUFFER_BYTES_PER_TBPS = 4.4e6


def paper_fabric(
    sim: Simulator,
    rate_bps: float = 100e9,
    link_delay_ns: int = 1_000,
    switch_cfg: Optional[SwitchConfig] = None,
) -> Tuple[Network, List[Host]]:
    """The paper's full-scale flow-scheduling fabric: k=6, 320 hosts, 100 Gbps.

    A standard k=6 fat-tree carries only k³/4 = 54 hosts, so the paper's 320
    hosts are packed by widening the edge layer: the 18 edge switches carry
    17–18 hosts each (14×18 + 4×17 = 320), the closest uniform layout.  Edge
    downlink capacity is therefore oversubscribed ~6:1 versus the 3 uplinks —
    matching large-scale evaluation practice where the edge, not the core, is
    the contention point.

    Switch buffers follow the 4.4 MB/Tbps sizing rule over the switch's port
    count at ``rate_bps`` (≈9.7 MB for a 22-port edge at 100 Gbps); with the
    default 1 µs per-hop propagation delay the 6-hop host-to-host base RTT
    lands near the paper's ~12 µs datacenter figure.
    """
    n_edges = 6 * 3  # k * k/2
    base, extra = divmod(PAPER_FABRIC_HOSTS, n_edges)  # 17 remainder 14
    hosts_per_edge = [base + 1] * extra + [base] * (n_edges - extra)
    if switch_cfg is None:
        # widest switch: an edge with `base+1` downlinks + 3 uplinks
        ports = (base + 1) + 3
        buffer_bytes = int(PAPER_BUFFER_BYTES_PER_TBPS * ports * rate_bps / 1e12)
        switch_cfg = SwitchConfig(buffer_bytes=buffer_bytes)
    net, hosts = fat_tree(
        sim,
        k=6,
        rate_bps=rate_bps,
        link_delay_ns=link_delay_ns,
        switch_cfg=switch_cfg,
        hosts_per_edge=hosts_per_edge,
    )
    if len(hosts) != PAPER_FABRIC_HOSTS:
        raise AssertionError(f"paper_fabric built {len(hosts)} hosts, wanted 320")
    return net, hosts


def leaf_spine(
    sim: Simulator,
    n_leaves: int,
    hosts_per_leaf: int,
    n_spines: int,
    host_rate_bps: float,
    oversubscription: float,
    link_delay_ns: int,
    switch_cfg: SwitchConfig,
) -> Tuple[Network, List[Host]]:
    """Leaf-spine with a downlink:uplink capacity ratio of ``oversubscription``.

    The ML-training scenario (§6.2) uses 24 servers at 100 Gbps with a 2:1
    subscription ratio, i.e. 4 leaves x 6 hosts and uplink capacity equal to
    half the downlink capacity per leaf.
    """
    net = Network(sim, switch_cfg)
    spines = [net.add_switch(name=f"spine{s}") for s in range(n_spines)]
    hosts: List[Host] = []
    uplink_total = hosts_per_leaf * host_rate_bps / oversubscription
    uplink_rate = uplink_total / n_spines
    for li in range(n_leaves):
        leaf = net.add_switch(name=f"leaf{li}")
        for s in spines:
            net.connect(leaf, s, uplink_rate, link_delay_ns)
        for h in range(hosts_per_leaf):
            host = net.add_host(name=f"h{li}_{h}")
            hosts.append(host)
            net.connect(host, leaf, host_rate_bps, link_delay_ns)
    net.build_routes()
    return net, hosts


def multi_rack(
    sim: Simulator,
    n_racks: int,
    hosts_per_rack: int,
    host_rate_bps: float,
    core_rate_bps: float,
    link_delay_ns: int,
    switch_cfg: SwitchConfig,
) -> Tuple[Network, List[Host]]:
    """Non-blocking multi-rack fabric (coflow scenario: 5 pods, 400 G core)."""
    net = Network(sim, switch_cfg)
    # enough core links to keep the fabric non-blocking
    need = hosts_per_rack * host_rate_bps
    core_count = max(1, int(-(-need // core_rate_bps)))
    cores = [net.add_switch(name=f"core{c}") for c in range(core_count)]
    hosts: List[Host] = []
    for r in range(n_racks):
        tor = net.add_switch(name=f"tor{r}")
        for c in cores:
            net.connect(tor, c, core_rate_bps, link_delay_ns)
        for h in range(hosts_per_rack):
            host = net.add_host(name=f"h{r}_{h}")
            hosts.append(host)
            net.connect(host, tor, host_rate_bps, link_delay_ns)
    net.build_routes()
    return net, hosts
