"""End host: one NIC egress port plus transport dispatch.

A host owns exactly one uplink to its ToR switch.  Packets addressed to the
host are handed to the registered flow endpoints: DATA/PROBE go to the
receiver side, ACK/PROBE_ACK to the sender side.  The host's egress port is a
regular :class:`~repro.sim.port.Port`, so PFC PAUSE from the ToR throttles it
exactly as it would a switch.
"""

from __future__ import annotations

from typing import Dict, Optional

from .engine import Simulator
from .packet import ACK, DATA, PACKET_POOL, PROBE, PROBE_ACK, Packet
from .port import Port

__all__ = ["Host"]


class Host:
    """A server with a single NIC."""

    __slots__ = (
        "sim",
        "node_id",
        "n_queues",
        "name",
        "port",
        "senders",
        "receivers",
        "rx_bytes",
        "rx_packets",
        "probe",
    )

    def __init__(self, sim: Simulator, node_id: int, n_queues: int = 8, name: str = ""):
        self.sim = sim
        self.node_id = node_id
        self.n_queues = n_queues
        self.name = name or f"host{node_id}"
        self.port: Optional[Port] = None
        #: flow_id -> sender endpoint (handles ACK / PROBE_ACK)
        self.senders: Dict[int, object] = {}
        #: flow_id -> receiver endpoint (handles DATA / PROBE)
        self.receivers: Dict[int, object] = {}
        self.rx_bytes = 0
        self.rx_packets = 0
        self.probe = sim.probe

    #: host NIC queue count: room for 16 virtual priorities plus an ACK queue
    NIC_QUEUES = 18

    def attach_port(self, rate_bps: float) -> Port:
        if self.port is not None:
            raise RuntimeError(f"{self.name} already has a NIC port")
        # The NIC schedules the host's *own* flows by virtual priority (free
        # local scheduling); the wire still only sees the physical class.
        self.port = Port(
            self.sim,
            rate_bps,
            n_queues=max(self.n_queues, self.NIC_QUEUES),
            name=f"{self.name}.nic",
            local_queues=True,
        )
        return self.port

    def local_data_queue(self, vpriority: int) -> int:
        """NIC queue for data of a flow with this virtual priority."""
        if self.port is None:
            raise RuntimeError(f"{self.name} is not connected")
        return max(0, min(vpriority, self.port.n_queues - 2))

    def local_ack_queue(self) -> int:
        if self.port is None:
            raise RuntimeError(f"{self.name} is not connected")
        return self.port.n_queues - 1

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        if self.port is None:
            raise RuntimeError(f"{self.name} is not connected")
        self.port.enqueue(pkt, None)

    def receive(self, pkt: Packet, in_idx: int) -> None:
        self.rx_bytes += pkt.size
        self.rx_packets += 1
        kind = pkt.kind
        if kind == DATA or kind == PROBE:
            endpoint = self.receivers.get(pkt.flow_id)
        elif kind == ACK or kind == PROBE_ACK:
            endpoint = self.senders.get(pkt.flow_id)
        else:  # pragma: no cover - unknown kinds are a programming error
            raise RuntimeError(f"{self.name}: unknown packet kind {kind}")
        if endpoint is not None:
            endpoint.on_packet(pkt)
        p = self.probe
        if p.on:
            p.pkt_delivered(self.sim.now, pkt)
        # the host is the packet's terminal owner: endpoints read fields
        # synchronously in on_packet and never retain the object
        PACKET_POOL.release(pkt)
