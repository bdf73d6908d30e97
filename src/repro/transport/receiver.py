"""Receiver endpoint: per-packet ACKs, probe echoes, completion detection."""

from __future__ import annotations

from ..sim.engine import Simulator
from ..sim.packet import (
    ACK,
    DATA,
    MIN_PACKET_BYTES,
    PACKET_POOL,
    PROBE,
    PROBE_ACK,
    Packet,
)
from .flow import Flow

__all__ = ["FlowReceiver", "Filled"]


class Filled:
    """A per-packet bitmap outside its flow's live window: ``n`` equal bytes,
    all 0 before the flow starts and all 1 once it has finished.

    It reads like the ``bytearray`` it stands in for (index, ``len``,
    iteration, ``bytes()``) but has no item assignment, so any write raises
    ``TypeError``.  One instance is shared by a flow's ``sent``, ``acked``
    and ``received``; it deep-copies and pickles by value.
    """

    __slots__ = ("n", "bit")

    def __init__(self, n: int, bit: int):
        self.n = n
        self.bit = bit

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if -self.n <= i < self.n:
            return self.bit
        raise IndexError("bitmap index out of range")

    def __reduce__(self):
        return Filled, (self.n, self.bit)


class FlowReceiver:
    """Receives one flow's data at its destination host.

    Emits one ACK per data packet.  The ACK echoes the data packet's send
    timestamp (for sender-side RTT), its ECN mark, and any INT telemetry, and
    carries a cumulative sequence number (lowest packet index not yet
    received) so the sender can fast-retransmit holes.
    """

    __slots__ = ("sim", "flow", "host", "n_packets", "received", "rx_count", "cum_seq", "ack_priority", "on_complete")

    def __init__(self, sim: Simulator, flow: Flow, n_packets: int, ack_priority: int):
        self.sim = sim
        self.flow = flow
        self.host = flow.dst
        self.n_packets = n_packets
        self.received = Filled(n_packets, 0)
        self.rx_count = 0
        self.cum_seq = 0
        self.ack_priority = ack_priority
        self.on_complete = None

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PROBE:
            self._echo(pkt, PROBE_ACK)
            return
        if pkt.kind != DATA:  # pragma: no cover - host dispatch guarantees this
            raise RuntimeError(f"receiver got unexpected packet kind {pkt.kind}")
        seq = pkt.seq
        received = self.received
        if not received[seq]:
            if received.__class__ is Filled:
                received = self.open_bitmap()
            received[seq] = 1
            self.rx_count += 1
            while self.cum_seq < self.n_packets and received[self.cum_seq]:
                self.cum_seq += 1
            if self.rx_count == self.n_packets and self.flow.completion_ns is None:
                self.flow.completion_ns = self.sim.now
                if self.on_complete is not None:
                    self.on_complete(self.flow)
        self._echo(pkt, ACK)

    def open_bitmap(self) -> bytearray:
        """The live bitmap, allocated at the flow's start or, for a receiver
        written without a sender's start, at its first delivery."""
        if self.received.__class__ is Filled:
            self.received = bytearray(self.n_packets)
        return self.received

    def _echo(self, pkt: Packet, kind: int) -> None:
        ack = PACKET_POOL.acquire(
            kind,
            MIN_PACKET_BYTES,
            src=self.host.node_id,
            dst=pkt.src,
            flow_id=pkt.flow_id,
            seq=pkt.seq,
            priority=self.ack_priority,
            send_ts=self.sim.now,
        )
        ack.local_prio = self.host.local_ack_queue()
        ack.echo_ts = pkt.send_ts
        ack.ecn_echo = pkt.ecn
        ack.int_hops = pkt.int_hops
        ack.ack_seq = self.cum_seq
        self.host.send(ack)
