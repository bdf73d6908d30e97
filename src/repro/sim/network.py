"""Network facade: node creation, link wiring, routing, base-RTT math."""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from .engine import Simulator
from .host import Host
from .packet import HEADER_BYTES, MIN_PACKET_BYTES
from .port import Port
from .switch import Switch, SwitchConfig, ecmp_hash

__all__ = ["Network"]

Node = Union[Host, Switch]


class Network:
    """Owns all nodes and links of one simulated fabric.

    Typical use::

        sim = Simulator(seed=1)
        net = Network(sim, SwitchConfig(n_queues=8))
        sw = net.add_switch()
        h1, h2 = net.add_host(), net.add_host()
        net.connect(h1, sw, rate_bps=100e9, prop_delay_ns=1000)
        net.connect(h2, sw, rate_bps=100e9, prop_delay_ns=1000)
        net.build_routes()

    Path timing (:meth:`base_rtt_ns`, :meth:`bottleneck_rate_bps`) is
    memoised by the fabric's structure, not per host pair: every host's NIC
    hop and its attachment switch's hop into it, and the switch-to-switch
    middle of the canonical path per pair of attachment switches (all hosts
    under one switch share its route tables).  The memo is exact because
    every input of the walk changes only through two writers, and both
    clear it: routes change only in :meth:`_build_all_routes` (so
    :meth:`build_routes` and :meth:`rebuild_routes`), and serialisation
    rates only through the :attr:`Port.ns_per_byte
    <repro.sim.port.Port.ns_per_byte>` setter (a link degrade).
    Propagation delays are fixed once :meth:`connect` has run.
    """

    def __init__(self, sim: Simulator, switch_cfg: SwitchConfig):
        self.sim = sim
        self.switch_cfg = switch_cfg
        self.nodes: List[Node] = []
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        #: adjacency: node_id -> list of (egress Port, peer node)
        self._adj: Dict[int, List[Tuple[Port, Node]]] = {}
        self._routes_built = False
        #: path timing by fabric structure (see the class docstring), keyed
        #: by node ids: ``(switch, switch)`` -> (the middle's ports, their
        #: least rate); ``(switch, switch, data, ack)`` -> the middle's
        #: share of an RTT; ``(host, out, in)`` -> the host's NIC hop
        #: carrying ``out`` bytes plus the hop into it carrying ``in``;
        #: ``host`` -> (NIC rate, rate of the hop into it)
        self._path_memo: Dict[object, object] = {}
        #: armed by :meth:`build_routes` when a default fault plan is active
        #: (see repro.faults.set_default_fault_plan), or set explicitly by
        #: constructing a FaultInjector against this network
        self.fault_injector = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_host(self, name: str = "") -> Host:
        node_id = len(self.nodes)
        host = Host(self.sim, node_id, n_queues=self.switch_cfg.n_queues, name=name)
        self.nodes.append(host)
        self.hosts.append(host)
        self._adj[node_id] = []
        return host

    def add_switch(self, name: str = "") -> Switch:
        node_id = len(self.nodes)
        switch = Switch(self.sim, node_id, self.switch_cfg, name=name)
        self.nodes.append(switch)
        self.switches.append(switch)
        self._adj[node_id] = []
        return switch

    def connect(self, a: Node, b: Node, rate_bps: float, prop_delay_ns: int) -> None:
        """Create a full-duplex link between two nodes."""
        port_ab = self._egress_port(a, rate_bps)
        port_ba = self._egress_port(b, rate_bps)
        in_at_b = self._ingress_index(b, port_ab, prop_delay_ns)
        in_at_a = self._ingress_index(a, port_ba, prop_delay_ns)
        port_ab.connect(b, prop_delay_ns, in_at_b)
        port_ba.connect(a, prop_delay_ns, in_at_a)
        self._adj[a.node_id].append((port_ab, b))
        self._adj[b.node_id].append((port_ba, a))

    def _egress_port(self, node: Node, rate_bps: float) -> Port:
        if isinstance(node, Host):
            return node.attach_port(rate_bps)
        idx = node.add_port(rate_bps)
        return node.ports[idx]

    def _ingress_index(self, node: Node, upstream_port: Port, prop_delay_ns: int) -> int:
        if isinstance(node, Host):
            return 0
        in_idx = len(node.ports) - 1 if node.ports else 0
        # For switches the ingress index mirrors the egress port index of the
        # same physical link (full-duplex), which add_port just created (or
        # will create for the b->a direction ordering).
        return in_idx

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Populate ECMP next-hop tables and finalize switch buffers."""
        for switch in self.switches:
            switch.finalize()
        # register ingress peers now that all ports exist
        for node in self.nodes:
            for port, peer in self._adj[node.node_id]:
                if isinstance(peer, Switch):
                    peer.register_ingress(port.peer_in_idx, port, port.prop_delay_ns)
        self._build_all_routes()
        self._routes_built = True
        # arm the process-default fault plan (if any) against this fabric;
        # a no-op one-call check when fault injection is off
        from ..faults.plan import current_fault_plan

        plan = current_fault_plan()
        if plan is not None and self.fault_injector is None:
            from ..faults.injector import FaultInjector

            self.fault_injector = FaultInjector(self.sim, self, plan)
            self.fault_injector.arm()

    def _build_all_routes(self) -> None:
        """Fill every switch's ECMP table: all shortest next hops to each host.

        Hosts are single-homed and never relay, so the shortest paths to a host
        are those to its attachment switch plus the last hop: one BFS per
        attachment switch serves every host under it, and the other switches
        share one next-hop list for all of them.  Links whose egress port is
        down are excluded (failure handling); a host whose NIC is down, or
        that hangs off another host, gets no routes.
        """
        self._path_memo.clear()
        adj = self._adj
        for switch in self.switches:
            assert [port for port, _ in adj[switch.node_id]] == switch.ports
        attached = [
            (host, host.port.peer)
            for host in self.hosts
            if host.port is not None and not host.port.down
            and isinstance(host.port.peer, Switch)
        ]
        tables: Dict[int, List[Tuple[Switch, List[int]]]] = {}
        for _, edge in attached:
            if edge.node_id in tables:
                continue
            dist: Dict[int, int] = {edge.node_id: 0}
            frontier = deque([edge.node_id])
            while frontier:
                nid = frontier.popleft()
                for port, peer in adj[nid]:
                    if not port.down and peer.node_id not in dist:
                        dist[peer.node_id] = dist[nid] + 1
                        frontier.append(peer.node_id)
            table = tables[edge.node_id] = []
            for switch in self.switches:
                if switch is edge or switch.node_id not in dist:
                    continue
                best = dist[switch.node_id] - 1
                hops = [
                    idx
                    for idx, (port, peer) in enumerate(adj[switch.node_id])
                    if not port.down and dist.get(peer.node_id, -1) == best
                ]
                if hops:
                    table.append((switch, hops))
        for host, edge in attached:
            for switch, hops in tables[edge.node_id]:
                switch.routes[host.node_id] = hops
            hops = [
                idx
                for idx, (port, peer) in enumerate(adj[edge.node_id])
                if peer is host and not port.down
            ]
            if hops:
                edge.routes[host.node_id] = hops

    # ------------------------------------------------------------------
    # path math
    # ------------------------------------------------------------------
    def path_ports(
        self,
        src: Host,
        dst: Host,
        flow_id: Optional[int] = None,
    ) -> List[Port]:
        """One concrete shortest path (egress ports traversed src -> dst).

        Without ``flow_id`` this returns the canonical first-choice route at
        every ECMP fan-out.  With ``flow_id`` it applies the same per-flow
        hash the switches use, so the result is the exact path that flow's
        data packets take.
        """
        ports = [src.port]
        node: Node = src.port.peer
        guard = 0
        while node is not dst:
            if not isinstance(node, Switch):
                raise RuntimeError("path wandered into a host that is not dst")
            routes = node.routes.get(dst.node_id)
            if not routes:
                raise RuntimeError(f"no route from {node.name} to {dst.name}")
            if flow_id is not None and len(routes) > 1:
                idx = routes[ecmp_hash(flow_id, node.node_id) % len(routes)]
            else:
                idx = routes[0]
            port = node.ports[idx]
            ports.append(port)
            node = port.peer
            guard += 1
            if guard > 64:
                raise RuntimeError("routing loop detected")
        return ports

    def base_rtt_ns(self, src: Host, dst: Host, data_bytes: int = 1000 + HEADER_BYTES) -> int:
        """Unloaded RTT for a ``data_bytes`` packet and its minimum-size ACK.

        Sum of per-hop propagation plus store-and-forward serialisation in
        both directions (the reverse path is assumed symmetric, which holds
        for every topology in this repo), over :meth:`path_ports`'s
        canonical paths.  Served from the path memo as three integer sums,
        so exactly the walk's total: the middle between the two attachment
        switches, both ways, and each host's share — its NIC hop out plus
        its switch's hop into it.
        """
        memo = self._path_memo
        # the data leaves src's NIC and enters dst, the ACK the other way
        s = memo.get((src.node_id, data_bytes, MIN_PACKET_BYTES))
        if s is None:
            s = self._host_share(src, data_bytes, MIN_PACKET_BYTES)
        d = memo.get((dst.node_id, MIN_PACKET_BYTES, data_bytes))
        if d is None:
            d = self._host_share(dst, MIN_PACKET_BYTES, data_bytes)
        if s is None or d is None:
            # a host off any switch, or one no route leads to: walk
            fwd = self.path_ports(src, dst)
            rtt = sum(port.prop_delay_ns + port.tx_time_ns(data_bytes) for port in fwd)
            rev = self.path_ports(dst, src)
            return rtt + sum(port.prop_delay_ns + port.tx_time_ns(MIN_PACKET_BYTES) for port in rev)
        mid = memo.get((src.port.peer.node_id, dst.port.peer.node_id, data_bytes, MIN_PACKET_BYTES))
        if mid is None:
            mid = self._time_middle(src, dst, data_bytes, MIN_PACKET_BYTES)
        return s + mid + d

    def bottleneck_rate_bps(self, src: Host, dst: Host) -> float:
        """Least link rate on the canonical path ``src`` -> ``dst``."""
        memo = self._path_memo
        s = memo.get(src.node_id) or self._host_rates(src)
        d = memo.get(dst.node_id) or self._host_rates(dst)
        if s is None or d is None:
            return min(port.rate_bps for port in self.path_ports(src, dst))
        middle = memo.get((src.port.peer.node_id, dst.port.peer.node_id)) or self._middle(src, dst)
        # min keeps the first of equal rates in path order, as the walk does
        return min(s[0], middle[1], d[1])

    def _middle(self, src: Host, dst: Host) -> Tuple[List[Port], float]:
        """Memoise the canonical path's ports from ``src``'s attachment switch
        to ``dst``'s (none under one switch) and their least rate."""
        memo = self._path_memo
        ports = self.path_ports(src, dst)[1:-1]
        rate = math.inf
        for port in ports:
            port.path_memo = memo  # a rate write clears what it fed
            if port.rate_bps < rate:
                rate = port.rate_bps
        middle = memo[src.port.peer.node_id, dst.port.peer.node_id] = (ports, rate)
        return middle

    def _time_middle(self, src: Host, dst: Host, data_bytes: int, ack_bytes: int) -> int:
        """Memoise the middle's share of an RTT, data there and ACK back."""
        memo = self._path_memo
        src_id = src.port.peer.node_id
        dst_id = dst.port.peer.node_id
        there = memo.get((src_id, dst_id)) or self._middle(src, dst)
        back = memo.get((dst_id, src_id)) or self._middle(dst, src)
        rtt = 0
        for port in there[0]:
            rtt += port.prop_delay_ns + port.tx_time_ns(data_bytes)
        for port in back[0]:
            rtt += port.prop_delay_ns + port.tx_time_ns(ack_bytes)
        memo[src_id, dst_id, data_bytes, ack_bytes] = rtt
        return rtt

    @staticmethod
    def _end_hops(host: Host) -> Optional[Tuple[Port, Port]]:
        """``host``'s NIC port and its switch's port into it, the first and
        last hop of every path from and to it; None for a host on no switch
        or one its switch has no route to (its NIC is down)."""
        nic = host.port
        edge = nic.peer if nic is not None else None
        if not isinstance(edge, Switch):
            return None
        routes = edge.routes.get(host.node_id)
        if not routes:
            return None
        return nic, edge.ports[routes[0]]

    def _host_share(self, host: Host, out_bytes: int, in_bytes: int) -> Optional[int]:
        """Memoise ``host``'s NIC hop carrying ``out_bytes`` plus its switch's
        hop into it carrying ``in_bytes``."""
        hops = self._end_hops(host)
        if hops is None:
            return None
        nic, into = hops
        memo = nic.path_memo = into.path_memo = self._path_memo
        share = memo[host.node_id, out_bytes, in_bytes] = (
            nic.prop_delay_ns + nic.tx_time_ns(out_bytes) + into.prop_delay_ns + into.tx_time_ns(in_bytes)
        )
        return share

    def _host_rates(self, host: Host) -> Optional[Tuple[float, float]]:
        """Memoise (NIC rate, rate of the hop into ``host``)."""
        hops = self._end_hops(host)
        if hops is None:
            return None
        memo = hops[0].path_memo = hops[1].path_memo = self._path_memo
        rates = memo[host.node_id] = (hops[0].rate_bps, hops[1].rate_bps)
        return rates

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def set_link_state(self, a: Node, b: Node, up: bool) -> int:
        """Cut or restore the full-duplex link between ``a`` and ``b``.

        Cutting drops everything queued on both directions (returned count)
        and removes the link from subsequent route computations; call
        :meth:`rebuild_routes` afterwards so traffic takes surviving paths.

        The link must be registered on *both* endpoints' adjacency (as
        :meth:`connect` guarantees); a half-registered link raises before
        anything is mutated, so the network is never left with one direction
        cut and the other forwarding.
        """
        ports_ab = [port for port, peer in self._adj[a.node_id] if peer is b]
        ports_ba = [port for port, peer in self._adj[b.node_id] if peer is a]
        if not ports_ab or not ports_ba:
            if ports_ab or ports_ba:
                raise ValueError(
                    f"link between {a.node_id} and {b.node_id} is only "
                    f"registered on one endpoint (inconsistent adjacency)"
                )
            raise ValueError(f"no link between {a.node_id} and {b.node_id}")
        dropped = 0
        for port in ports_ab + ports_ba:
            dropped += port.cut() if not up else port.restore()
        return dropped

    def rebuild_routes(self) -> None:
        """Recompute ECMP tables, excluding links that are down."""
        for switch in self.switches:
            switch.routes.clear()
            switch._route_cache.clear()
        self._build_all_routes()

    def total_drops(self) -> int:
        return sum(s.drops for s in self.switches)

    def total_pfc_pauses(self) -> int:
        return sum(s.pfc_pause_count() for s in self.switches)

