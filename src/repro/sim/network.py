"""Network facade: node creation, link wiring, routing, base-RTT math."""

from __future__ import annotations

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
    """

    def __init__(self, sim: Simulator, switch_cfg: Optional[SwitchConfig] = None):
        self.sim = sim
        self.switch_cfg = switch_cfg if switch_cfg is not None else SwitchConfig()
        self.nodes: List[Node] = []
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        #: adjacency: node_id -> list of (egress Port, peer node)
        self._adj: Dict[int, List[Tuple[Port, Node]]] = {}
        self._routes_built = False
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

    def add_switch(self, name: str = "", cfg: Optional[SwitchConfig] = None) -> Switch:
        node_id = len(self.nodes)
        switch = Switch(self.sim, node_id, cfg or self.switch_cfg, name=name)
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
        hash_salt: int = 0,
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
                idx = routes[ecmp_hash(flow_id, node.node_id, hash_salt) % len(routes)]
            else:
                idx = routes[0]
            port = node.ports[idx]
            ports.append(port)
            node = port.peer
            guard += 1
            if guard > 64:
                raise RuntimeError("routing loop detected")
        return ports

    def base_rtt_ns(
        self,
        src: Host,
        dst: Host,
        data_bytes: int = 1000 + HEADER_BYTES,
        ack_bytes: int = MIN_PACKET_BYTES,
    ) -> int:
        """Unloaded RTT for a ``data_bytes`` packet and its ACK.

        Sum of per-hop propagation plus store-and-forward serialisation in
        both directions (the reverse path is assumed symmetric, which holds
        for every topology in this repo).
        """
        fwd = self.path_ports(src, dst)
        rtt = 0
        for port in fwd:
            rtt += port.prop_delay_ns + port.tx_time_ns(data_bytes)
        rev = self.path_ports(dst, src)
        for port in rev:
            rtt += port.prop_delay_ns + port.tx_time_ns(ack_bytes)
        return rtt

    def bottleneck_rate_bps(self, src: Host, dst: Host) -> float:
        return min(p.rate_bps for p in self.path_ports(src, dst))

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
