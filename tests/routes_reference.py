"""The per-host route build, kept as the oracle for the per-switch one.

Before ``Network`` built its ECMP tables once per attachment switch, it ran
one BFS from every host over the whole node graph.  ``build_routes_to`` and
``port_index`` are that code as it stood at 5c38865 (``_build_routes_to``
and ``_port_index``), as plain functions of the network; ``rebuild_routes``
is the old ``Network.rebuild_routes``.  ``tests/test_routes.py`` holds the
shipped tables to it with ``==``, insertion order included.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.port import Port
from repro.sim.switch import Switch


def rebuild_routes(net: Network) -> None:
    """Recompute ECMP tables, excluding links that are down."""
    for switch in net.switches:
        switch.routes.clear()
        switch._route_cache.clear()
    for host in net.hosts:
        build_routes_to(net, host)


def build_routes_to(net: Network, dst: Host) -> None:
    """BFS from ``dst`` over the node graph; ECMP keeps all shortest hops.

    Links whose egress port is down are excluded (failure handling).
    """
    dist: Dict[int, int] = {dst.node_id: 0}
    frontier = deque([dst.node_id])
    while frontier:
        nid = frontier.popleft()
        for port, peer in net._adj[nid]:
            if port.down:
                continue
            if peer.node_id not in dist:
                dist[peer.node_id] = dist[nid] + 1
                frontier.append(peer.node_id)
    for switch in net.switches:
        if switch.node_id not in dist:
            continue
        best = dist[switch.node_id] - 1
        next_hops: List[int] = []
        for idx, (port, peer) in enumerate(net._adj[switch.node_id]):
            if port.down:
                continue
            if dist.get(peer.node_id, 1 << 30) == best:
                next_hops.append(port_index(switch, port))
        if next_hops:
            switch.routes[dst.node_id] = next_hops


def port_index(switch: Switch, port: Port) -> int:
    for i, p in enumerate(switch.ports):
        if p is port:
            return i
    raise RuntimeError("port not found on switch")
