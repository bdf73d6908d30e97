"""Packet model.

A single :class:`Packet` class covers data, acknowledgement and probe
traffic; the :attr:`Packet.kind` discriminator keeps the hot path (switch
forwarding) monomorphic.  PFC PAUSE/RESUME frames are *not* packets — they are
modelled as control signals delivered directly between adjacent ports (see
:mod:`repro.sim.pfc`), mirroring the fact that real PFC frames are consumed by
the MAC layer and never enter the switching pipeline.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .. import probe as _probe

__all__ = [
    "Packet",
    "PacketPool",
    "PACKET_POOL",
    "IntHop",
    "DATA",
    "ACK",
    "PROBE",
    "PROBE_ACK",
    "HEADER_BYTES",
    "MIN_PACKET_BYTES",
]

DATA = 0
ACK = 1
PROBE = 2
PROBE_ACK = 3

#: Ethernet + IP + transport header overhead accounted per packet on the wire.
HEADER_BYTES = 40
#: Minimum frame size (probe packets, bare ACKs).
MIN_PACKET_BYTES = 64


class IntHop:
    """In-band network telemetry record stamped by one switch hop (HPCC)."""

    __slots__ = ("qlen", "tx_bytes", "ts", "rate_bps")

    def __init__(self, qlen: int, tx_bytes: int, ts: int, rate_bps: float):
        self.qlen = qlen
        self.tx_bytes = tx_bytes
        self.ts = ts
        self.rate_bps = rate_bps


class Packet:
    """A packet travelling through the simulated network.

    ``size`` is the full on-wire size in bytes (payload + headers).
    ``priority`` is the *physical* queue index used by switches; the virtual
    priority lives in the flow, not the packet, because PrioPlus shares one
    physical queue among all virtual priorities.
    """

    __slots__ = (
        "kind",
        "size",
        "payload",
        "priority",
        "local_prio",
        "src",
        "dst",
        "flow_id",
        "seq",
        "send_ts",
        "echo_ts",
        "ecn",
        "ecn_echo",
        "int_hops",
        "ack_seq",
        "sack",
        "ctx",
        "trace",
        "_in_pool",
    )

    def __init__(
        self,
        kind: int,
        size: int,
        src: int,
        dst: int,
        flow_id: int,
        seq: int = 0,
        priority: int = 0,
        payload: int = 0,
        send_ts: int = 0,
    ):
        self.kind = kind
        self.size = size
        self.payload = payload
        self.priority = priority
        #: queue index at the *sending host's* NIC only (-1: use `priority`).
        #: Lets a host schedule its own flows by virtual priority even though
        #: they share one physical switch queue.
        self.local_prio = -1
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.seq = seq
        self.send_ts = send_ts
        self.echo_ts = 0
        self.ecn = False
        self.ecn_echo = False
        self.int_hops: Optional[List[IntHop]] = None
        self.ack_seq = 0
        self.sack: Optional[Tuple[int, int]] = None
        #: per-hop owner context folded into the packet (what ports used to
        #: carry as a separate ``(pkt, ctx)`` queue-entry tuple)
        self.ctx: Any = None
        #: causal-tracing tag (see repro.obs.tracer); None unless this packet
        #: was deterministically sampled by an installed PacketTracer
        self.trace: Any = None
        self._in_pool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {DATA: "DATA", ACK: "ACK", PROBE: "PROBE", PROBE_ACK: "PROBE_ACK"}
        return (
            f"<{names.get(self.kind, self.kind)} flow={self.flow_id} seq={self.seq} "
            f"{self.size}B prio={self.priority} {self.src}->{self.dst}>"
        )


class PacketPool:
    """Free-list recycler for :class:`Packet` objects.

    Transport endpoints construct every packet through :meth:`acquire` and the
    terminal owner of a packet (the receiving host, the switch drop path, a
    link cut) hands it back through :meth:`release`.  ``acquire`` resets
    *every* slot, so a recycled packet is indistinguishable from a fresh one;
    reference-carrying slots (``int_hops``, ``sack``, ``ctx``) are cleared at
    release time too so pooled packets never pin other objects.

    A missed ``release`` is harmless (the garbage collector reclaims the
    packet and the pool simply allocates a fresh one later); a *double*
    release would corrupt the free list, so it raises via the ``_in_pool``
    guard flag.

    The pool is process-wide, so its two ledger events go to the *active*
    probe (:data:`repro.probe.active`) rather than to any one simulator's.
    """

    __slots__ = ("_free", "allocated", "reused", "released")

    def __init__(self):
        self._free: List[Packet] = []
        self.allocated = 0  # fresh constructions through acquire()
        self.reused = 0  # acquisitions served from the free list
        self.released = 0

    def acquire(
        self,
        kind: int,
        size: int,
        src: int,
        dst: int,
        flow_id: int,
        seq: int = 0,
        priority: int = 0,
        payload: int = 0,
        send_ts: int = 0,
    ) -> Packet:
        """A fully-reset packet: recycled when possible, fresh otherwise."""
        p = _probe.active
        if p.on:
            p.packet_acquired()
        free = self._free
        if free:
            pkt = free.pop()
            self.reused += 1
            pkt._in_pool = False
            pkt.kind = kind
            pkt.size = size
            pkt.payload = payload
            pkt.priority = priority
            pkt.local_prio = -1
            pkt.src = src
            pkt.dst = dst
            pkt.flow_id = flow_id
            pkt.seq = seq
            pkt.send_ts = send_ts
            pkt.echo_ts = 0
            pkt.ecn = False
            pkt.ecn_echo = False
            pkt.int_hops = None
            pkt.ack_seq = 0
            pkt.sack = None
            pkt.ctx = None
            pkt.trace = None
            return pkt
        self.allocated += 1
        return Packet(kind, size, src, dst, flow_id, seq, priority, payload, send_ts)

    def release(self, pkt: Packet) -> None:
        """Recycle a packet whose last owner is done with it."""
        p = _probe.active
        if p.on:
            p.packet_released()
        if pkt._in_pool:
            raise AssertionError(f"double release of pooled packet {pkt!r}")
        pkt._in_pool = True
        pkt.int_hops = None
        pkt.sack = None
        pkt.ctx = None
        pkt.trace = None
        self.released += 1
        self._free.append(pkt)

    @property
    def live(self) -> int:
        """Packets acquired and not yet released (leak metric for tests)."""
        return self.allocated + self.reused - self.released


#: process-wide pool used by the transport endpoints; per-process state, so
#: parallel runner workers each get their own
PACKET_POOL = PacketPool()
