"""Output port with strict-priority queues.

One :class:`Port` models the egress side of a link: per-priority FIFO queues,
a strict-priority scheduler (higher queue index = higher priority, matching
the paper's convention), PFC pause flags per priority, ECN marking, and INT
stamping for HPCC.

The port dequeues a packet when it *starts* transmitting it; buffer
accounting is released at that point (start-of-transmission freeing, the
convention used by ns-3's qbb model).

Hot-path design (see docs/PERFORMANCE.md): starting a transmission at ``t0``
schedules the peer's ``receive`` directly at ``t2 = t0 + tx + prop`` as one
fused, allocation-free event (:meth:`Simulator.call_at2`) instead of chaining
an end-of-transmission event at ``t1 = t0 + tx`` into a second ``receive``
event.  The ``t1`` wake-up remains (it frees the port and re-arms the
scheduler) but is also allocation-free, so a packet hop costs two bare heap
tuples and zero ``EventHandle`` objects.

A packet that finds the port idle and empty is queued and dequeued within one
event for no net queue change.  With no site-subscribing sink on the probe
(``probe.on`` false) that case skips the queues: :meth:`_cut_through` starts
the transmission directly, from :meth:`enqueue` on an un-owned port (a host
NIC) and from :meth:`Switch.receive <repro.sim.switch.Switch.receive>` on a
switch port, whose inline common case also appends to ``queues`` and keeps
``qbytes`` / ``_active`` / ``total_bytes`` itself when the packet has to wait.
With a sink installed every packet takes ``enqueue`` → ``_kick``, which is the
reference the common case is tested against (``tests/test_hot_path.py``).

``queues`` maps a queue index to its FIFO and creates the FIFO at the first
enqueue (a ``defaultdict``, so the append costs what a list index did): a
320-host fabric holds ~10 k per-priority queues, almost all of which never see
a packet.  Readers that only look (``cut``, the sampler and the auditor)
read a missing queue as empty and must not create it.

PFC/cut semantics are unchanged: a pause or ``cut()`` landing between
start-of-tx and delivery still only gates the *next* dequeue (the in-flight
packet keeps its delivery, exactly as before), because pause/down checks
always run at dequeue time.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, DefaultDict, List, Optional

from .engine import Simulator
from .packet import PACKET_POOL, IntHop, Packet

__all__ = ["Port"]


class Port:
    """Egress port: priority queues + strict-priority scheduler + one link."""

    __slots__ = (
        "sim",
        "name",
        "rate_bps",
        "_ns_per_byte",
        "_tx_cache",
        "path_memo",
        "cap_memo",
        "n_queues",
        "queues",
        "qbytes",
        "_active",
        "total_bytes",
        "paused",
        "busy",
        "prop_delay_ns",
        "peer",
        "peer_in_idx",
        "ecn_k",
        "tx_bytes_total",
        "tx_packets_total",
        "on_dequeue",
        "stamp_int",
        "local_queues",
        "ecn_marker",
        "down",
        "dropped_on_cut",
        "impairment",
        "probe",
        "_deliver",
        "_wake",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        n_queues: int = 8,
        ecn_k: Optional[int] = None,
        name: str = "port",
        stamp_int: bool = False,
        local_queues: bool = False,
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self._ns_per_byte = 8e9 / rate_bps
        self._tx_cache = {}
        self.n_queues = n_queues
        #: queue index -> FIFO, created by the first enqueue into it
        self.queues: DefaultDict[int, deque] = defaultdict(deque)
        self.qbytes = [0] * n_queues
        #: bitmask of non-empty queues: the scheduler finds the highest
        #: candidate with one bit_length() instead of scanning 18 deques
        self._active = 0
        self.total_bytes = 0
        self.paused = [False] * n_queues
        self.busy = False
        self.prop_delay_ns = 0
        self.peer = None  # receiving node
        self.peer_in_idx = 0  # index of this link at the peer's ingress
        #: ``peer.receive`` and ``self._tx_wake``, bound once: every
        #: transmission schedules both, and binding per packet is two
        #: allocations a hop (measured: docs/PERFORMANCE.md)
        self._deliver = None
        self._wake = self._tx_wake
        #: per-queue ECN marking threshold in bytes (None disables marking)
        self.ecn_k = ecn_k
        self.tx_bytes_total = 0
        self.tx_packets_total = 0
        #: callback(pkt, ctx) invoked when a packet leaves the queues
        self.on_dequeue: Optional[Callable[[Packet, Any], None]] = None
        self.stamp_int = stamp_int
        #: host-NIC mode: queue index comes from pkt.local_prio (virtual
        #: priority) while PFC pause still applies per *physical* class, by
        #: inspecting the head packet's `priority` field.
        self.local_queues = local_queues
        #: optional custom ECN hook: callable(pkt, queue_bytes) -> bool,
        #: overriding the uniform `ecn_k` threshold (Appendix-B extension)
        self.ecn_marker = None
        #: administratively/physically down: nothing transmits
        self.down = False
        self.dropped_on_cut = 0
        #: optional link impairment (see repro.faults.actors.LinkImpairment):
        #: an object with ``transmit(t2) -> int`` returning the (possibly
        #: delayed) delivery time, or a negative value to corrupt the packet
        #: on the wire.  ``None`` (the default) keeps the hot path to a
        #: single attribute check.
        self.impairment = None
        #: the simulator's instrumentation seam (see repro.probe)
        self.probe = sim.probe
        if self.probe.on:
            self.probe.register("port", self)

    # ------------------------------------------------------------------
    @property
    def ns_per_byte(self) -> float:
        return self._ns_per_byte

    @ns_per_byte.setter
    def ns_per_byte(self, value: float) -> None:
        # the one writer of a port's rate after construction: ``rate_bps``
        # follows, and so do the memoised serialisation times here, the path
        # timings of a network that memoised a path through this port (it
        # sets ``path_memo``) and the link capacities of a fluid driver that
        # read this port's rate (it sets ``cap_memo``); both slots stay unset
        # on the other ports
        self._ns_per_byte = value
        self.rate_bps = 8e9 / value
        self._tx_cache.clear()
        for memo in (getattr(self, "path_memo", None), getattr(self, "cap_memo", None)):
            if memo is not None:
                memo.clear()

    def connect(self, peer, prop_delay_ns: int, peer_in_idx: int = 0) -> None:
        """Attach the downstream node reached through this port."""
        self.peer = peer
        self._deliver = peer.receive
        self.prop_delay_ns = int(prop_delay_ns)
        self.peer_in_idx = peer_in_idx

    def tx_time_ns(self, size_bytes: int) -> int:
        """Serialisation time, memoised per size (MTU/ACK sizes dominate)."""
        cache = self._tx_cache
        t = cache.get(size_bytes)
        if t is None:
            t = cache[size_bytes] = max(1, int(size_bytes * self._ns_per_byte))
        return t

    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet, ctx: Any = None) -> None:
        """Queue a packet for transmission (admission already decided).

        ``ctx`` is opaque owner context handed back through ``on_dequeue``;
        it rides in ``pkt.ctx`` so a queue entry is the bare packet.
        """
        if self.local_queues and pkt.local_prio >= 0:
            q = pkt.local_prio
            if q >= self.n_queues:
                q = self.n_queues - 1
        else:
            q = pkt.priority
        size = pkt.size
        p = self.probe
        if (
            not self.busy
            and not self.total_bytes
            and self.on_dequeue is None
            and not p.on
            and self.ecn_marker is None
            and self.impairment is None
            and not self.down
        ):
            # idle, empty, un-owned port (a host NIC): the packet would be
            # queued and dequeued right here for no net queue change
            phys = pkt.priority
            paused = self.paused
            if phys >= len(paused) or not paused[phys]:
                if self.ecn_k is not None and size > self.ecn_k:
                    pkt.ecn = True
                pkt.ctx = ctx
                self._cut_through(pkt, size)
                return
        qbytes = self.qbytes
        marked = False
        if self.ecn_marker is not None:
            if self.ecn_marker(pkt, qbytes[q]):
                pkt.ecn = True
                marked = True
        elif self.ecn_k is not None and qbytes[q] + size > self.ecn_k:
            pkt.ecn = True
            marked = True
        pkt.ctx = ctx
        self.queues[q].append(pkt)
        self._active |= 1 << q
        qbytes[q] += size
        self.total_bytes += size
        if p.on:
            # before the kick: _kick may start transmitting this very packet
            p.enqueue(self.sim.now, self.name, q, qbytes[q], self.total_bytes, marked, pkt)
        if not self.busy:
            self._kick()

    def set_paused(self, prio: int, paused: bool) -> None:
        """PFC pause/resume for one *physical* priority class."""
        if prio < 0 or prio >= len(self.paused):
            raise ValueError(
                f"{self.name}: PFC priority {prio} out of range [0, {len(self.paused)})"
            )
        self.paused[prio] = paused
        p = self.probe
        if p.on:
            p.pause(self.sim.now, self.name, prio, paused)
        if not paused and not self.busy:
            self._kick()

    def kick(self) -> None:
        """Re-evaluate the scheduler (e.g. after a resume or new packet)."""
        if not self.busy:
            self._kick()

    # ------------------------------------------------------------------
    def cut(self) -> int:
        """Take the link down, dropping everything queued (a fibre cut).

        Returns the number of packets dropped.  Buffer accounting is
        released through the usual dequeue callback.  The in-flight packet
        (if any) is *not* recalled — it is already on the wire.

        Cut/restore contract: :meth:`cut` drops every queued packet (the
        count is returned, and also accumulated in ``dropped_on_cut``) and
        marks the port ``down``; :meth:`restore` brings it back up and
        returns the number of packets re-admitted — always ``0`` here,
        because a cut *drops* rather than parks.  PFC ``paused`` flags are
        untouched by both: pause state belongs to the PFC control plane and
        survives a link flap.  Both operations are idempotent.
        """
        was_busy = self.busy
        self.down = True
        dropped = 0
        drained: List[int] = []
        p = self.probe
        now = self.sim.now
        for q in range(self.n_queues):
            queue = self.queues.get(q)
            if not queue:
                continue
            drained.append(q)
            while queue:
                pkt = queue.popleft()
                self.qbytes[q] -= pkt.size
                self.total_bytes -= pkt.size
                if self.on_dequeue is not None:
                    self.on_dequeue(pkt, pkt.ctx)
                if p.on:
                    p.pkt_dropped(now, pkt, "link_cut")
                PACKET_POOL.release(pkt)
                dropped += 1
        self._active = 0
        self.dropped_on_cut += dropped
        if p.on:
            for q in drained:
                p.queue_depth(now, self.name, q, self.qbytes[q], self.total_bytes)
            if was_busy:
                # the wire goes dead mid-serialisation: report idle from the
                # cut instant instead of the never-reached end of tx
                p.link(now, self.name, False)
        return dropped

    def restore(self) -> int:
        """Bring the link back up and resume transmission.

        Returns the number of packets re-admitted into the queues — ``0``
        for this port model, which drops on :meth:`cut` instead of parking
        (see the cut/restore contract there).  The ``int`` return keeps the
        cut/restore pair symmetric for callers that aggregate drop counts,
        e.g. :meth:`repro.sim.network.Network.set_link_state`.
        """
        self.down = False
        if not self.busy:
            self._kick()
        return 0

    def withdraw(self) -> List[Packet]:
        """Empty the port for a fluid epoch (:mod:`repro.fluid.hybrid`):
        returns every queued packet in service order — strict priority,
        FIFO within a queue.  The owner's buffer and PFC accounting is
        released through ``on_dequeue`` as at a dequeue.  The frame in
        service is the caller's: its delivery and this port's wake-up are in
        the heap, and the port reads idle from here on."""
        p = self.probe
        now = self.sim.now
        if self.busy:
            self.busy = False
            if p.on and not self.down:
                p.link(now, self.name, False)
        out = []
        qbytes = self.qbytes
        for q in sorted(self.queues, reverse=True):
            queue = self.queues[q]
            if not queue:
                continue
            while queue:
                pkt = queue.popleft()
                size = pkt.size
                qbytes[q] -= size
                self.total_bytes -= size
                if self.on_dequeue is not None:
                    self.on_dequeue(pkt, pkt.ctx)
                out.append(pkt)
            if p.on:
                p.queue_depth(now, self.name, q, qbytes[q], self.total_bytes)
        self._active = 0
        return out

    def _kick(self) -> None:
        if self.down or not self.total_bytes:
            return
        # strict priority over the non-empty bitmask: highest queue whose
        # head's physical class isn't paused
        queues = self.queues
        paused = self.paused
        n_paused = len(paused)
        sel = self._active
        while True:
            if not sel:
                return
            q = sel.bit_length() - 1
            queue = queues[q]
            phys = queue[0].priority
            if phys < n_paused and paused[phys]:
                sel ^= 1 << q  # paused head: mask this queue for this pass
                continue
            break
        pkt = queue.popleft()
        if not queue:
            self._active ^= 1 << q
        size = pkt.size
        qbytes = self.qbytes
        qbytes[q] -= size
        total = self.total_bytes = self.total_bytes - size
        self.busy = True
        sim = self.sim
        now = sim.now
        cache = self._tx_cache
        tx = cache.get(size)
        if tx is None:
            tx = cache[size] = max(1, int(size * self._ns_per_byte))
        p = self.probe
        if p.on:
            # the nominal propagation delay; an impaired link corrects it below
            p.dequeue(now, self.name, q, qbytes[q], total, pkt, tx, self.prop_delay_ns)
        if self.stamp_int and pkt.int_hops is not None:
            pkt.int_hops.append(IntHop(total, self.tx_bytes_total, now, self.rate_bps))
        if self.on_dequeue is not None:
            self.on_dequeue(pkt, pkt.ctx)
        self.tx_bytes_total += size
        self.tx_packets_total += 1
        t1 = now + tx
        deliver = self._deliver
        if deliver is None:
            raise RuntimeError(f"{self.name}: transmitting on an unconnected port")
        t2 = t1 + self.prop_delay_ns
        imp = self.impairment
        if imp is not None:
            # degraded link: the packet still occupies the wire for its
            # full serialisation time, but may be corrupted (never
            # delivered) or delivered late (delay spike)
            t2 = imp.transmit(t2)
            if t2 < 0:
                if p.on:
                    p.pkt_corrupted(t1, pkt)
                PACKET_POOL.release(pkt)
                sim.call_at(t1, self._wake)
                return
            if p.on:
                # delay spikes land in the propagation component, so
                # traced spans keep summing to e2e
                p.wire_delay(pkt, t2 - t1)
        # fused: delivery at t2 scheduled up front, wake-up frees the port
        sim.call_at2(t2, deliver, (pkt, self.peer_in_idx), t1, self._wake, ())

    def _cut_through(self, pkt: Packet, size: int) -> None:
        """Start transmitting ``pkt`` on an idle, empty port, past the queues.

        What ``enqueue`` → ``_kick`` come to when the caller has established:
        ``probe.on`` false, port up and not busy, nothing queued, the
        packet's class not paused, no impairment — and has done the ECN mark,
        ``pkt.ctx`` and (for a switch port) the owner's accounting itself.
        The ``t1`` wake-up is scheduled like for any other transmission.
        (The model stays store-and-forward — the frame has fully arrived;
        what is cut is the trip through the queues, not the switching.)
        """
        deliver = self._deliver
        if deliver is None:
            raise RuntimeError(f"{self.name}: transmitting on an unconnected port")
        self.busy = True
        sim = self.sim
        now = sim.now
        cache = self._tx_cache
        tx = cache.get(size)
        if tx is None:
            tx = cache[size] = max(1, int(size * self._ns_per_byte))
        if self.stamp_int and pkt.int_hops is not None:
            pkt.int_hops.append(IntHop(0, self.tx_bytes_total, now, self.rate_bps))
        self.tx_bytes_total += size
        self.tx_packets_total += 1
        t1 = now + tx
        sim.call_at2(
            t1 + self.prop_delay_ns, deliver, (pkt, self.peer_in_idx), t1, self._wake, ()
        )

    def _tx_wake(self) -> None:
        """End-of-transmission: free the port and re-arm the scheduler."""
        self.busy = False
        p = self.probe
        if p.on and not self.down:
            p.link(self.sim.now, self.name, False)
        if self.total_bytes:
            self._kick()
