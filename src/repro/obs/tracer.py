"""Causal packet tracing: deterministic sampling + per-hop latency breakdown.

A :class:`PacketTracer` follows individual packets end to end — host NIC →
switch egress ports → receiving host — and splits every hop's latency into

* **queueing**: time between enqueue and start of transmission, minus pause,
* **pause**: the part of the wait attributable to a PFC PAUSE asserted
  against the packet's physical priority class on that port,
* **serialization**: the wire time of the packet at the port's rate,
* **propagation**: the link's propagation delay (including any impairment
  delay spike, which stretches this component).

Because a packet hands off synchronously at every boundary (enqueue at the
next hop happens in the same event that delivers it), the per-hop components
of a delivered packet sum *exactly* to its end-to-end latency — pinned by
``tests/test_obs.py``.

The tracer is a :mod:`repro.probe` sink (install it with
:func:`repro.probe.installed` *before* building simulators).  It schedules
no events and draws from no simulation RNG; packets are selected by a
*deterministic hash* of ``(flow_id, seq)`` and every handler ignores packets
without a ``pkt.trace`` tag, so tracing leaves results byte-identical
(golden battery ``--obs trace``).

Only sender-originated packets (DATA and PROBE) are traced; ACKs are control
traffic created inside the receiver and are not sampled.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

__all__ = ["HopRecord", "PacketTrace", "PacketTracer"]

_HASH_A = 2654435761  # Knuth multiplicative hash constants
_HASH_B = 2246822519


class HopRecord:
    """One traversed egress port: where the packet's time went on this hop."""

    __slots__ = ("port", "queue", "t_enq", "t_start_tx", "tx_ns", "prop_ns", "pause_ns")

    def __init__(self, port: str, queue: int, t_enq: int):
        self.port = port
        self.queue = queue
        self.t_enq = t_enq
        self.t_start_tx = 0
        self.tx_ns = 0
        self.prop_ns = 0
        self.pause_ns = 0

    @property
    def wait_ns(self) -> int:
        """Full time spent queued (pause + pure queueing)."""
        return self.t_start_tx - self.t_enq

    @property
    def queue_ns(self) -> int:
        """Queueing time net of PFC pause."""
        return self.wait_ns - self.pause_ns

    @property
    def total_ns(self) -> int:
        """Everything this hop contributed to the end-to-end latency."""
        return self.wait_ns + self.tx_ns + self.prop_ns

    def to_dict(self) -> dict:
        return {
            "port": self.port,
            "queue": self.queue,
            "t_enq": self.t_enq,
            "t_start_tx": self.t_start_tx,
            "queue_ns": self.queue_ns,
            "pause_ns": self.pause_ns,
            "tx_ns": self.tx_ns,
            "prop_ns": self.prop_ns,
        }


class PacketTrace:
    """The trace tag carried by a sampled packet (rides in ``pkt.trace``)."""

    __slots__ = ("trace_id", "flow_id", "seq", "kind", "size", "birth_ns", "end_ns",
                 "disposition", "hops", "open_hop")

    def __init__(self, trace_id: int, flow_id: int, seq: int, kind: int, size: int,
                 birth_ns: int):
        self.trace_id = trace_id
        self.flow_id = flow_id
        self.seq = seq
        self.kind = kind
        self.size = size
        self.birth_ns = birth_ns
        self.end_ns: Optional[int] = None
        #: ``delivered`` / ``dropped:<reason>`` / ``corrupted`` /
        #: ``withdrawn`` (taken out at a fluid entry) / ``in_flight``
        self.disposition = "in_flight"
        self.hops: List[HopRecord] = []
        self.open_hop: Optional[HopRecord] = None

    @property
    def e2e_ns(self) -> Optional[int]:
        return None if self.end_ns is None else self.end_ns - self.birth_ns

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "flow": self.flow_id,
            "seq": self.seq,
            "kind": self.kind,
            "size": self.size,
            "birth_ns": self.birth_ns,
            "end_ns": self.end_ns,
            "e2e_ns": self.e2e_ns,
            "disposition": self.disposition,
            "hops": [h.to_dict() for h in self.hops],
        }


class PacketTracer:
    """Deterministically samples packets and records per-hop latency spans.

    Parameters
    ----------
    sample_every:
        On average one in ``sample_every`` (flow, seq) identities is traced,
        selected by a deterministic integer hash (never the simulation RNG).
        ``1`` traces everything.
    """

    #: completed traces kept verbatim; beyond this only counters grow, so a
    #: long traced run cannot exhaust memory
    MAX_TRACES = 100_000

    def __init__(self, sample_every: int = 16):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.traces: List[PacketTrace] = []
        self.started = 0
        self.delivered = 0
        self.dropped = 0
        self.corrupted = 0
        self.withdrawn = 0
        self.overflow = 0  # completed traces discarded beyond MAX_TRACES
        self._next_id = 0
        self._live: Dict[int, PacketTrace] = {}
        # PFC pause ledger per (port, physical priority): closed intervals +
        # the currently-open pause start (None when not paused)
        self._pause_closed: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
        self._pause_open: Dict[Tuple[str, int], int] = {}
        self.finalized = False

    # ------------------------------------------------------------------
    # packet lifecycle (probe event handlers)
    # ------------------------------------------------------------------
    def pkt_sent(self, now: int, pkt) -> None:
        """Attach a trace tag to ``pkt`` if its (flow, seq) hash is sampled."""
        h = (pkt.flow_id * _HASH_A) ^ ((pkt.seq + 1) * _HASH_B)
        h ^= h >> 13
        if (h & 0xFFFFFFFF) % self.sample_every:
            return
        self._next_id += 1
        trace = PacketTrace(self._next_id, pkt.flow_id, pkt.seq, pkt.kind, pkt.size, now)
        pkt.trace = trace
        self._live[trace.trace_id] = trace
        self.started += 1

    def enqueue(self, now, port, queue, qbytes, total, ecn_marked, pkt) -> None:
        """The packet entered an egress queue: a new hop opens."""
        if pkt.trace is not None:
            pkt.trace.open_hop = HopRecord(port, queue, now)

    def dequeue(self, now, port, queue, qbytes, total, pkt, tx_ns, prop_ns) -> None:
        """The packet started serialising: close the open hop's breakdown."""
        trace = pkt.trace
        if trace is None or trace.open_hop is None:  # untraced, or enqueued before tracing
            return
        hop = trace.open_hop
        hop.t_start_tx = now
        hop.tx_ns = tx_ns
        hop.prop_ns = prop_ns
        hop.pause_ns = self._pause_overlap(hop.port, pkt.priority, hop.t_enq, now)
        trace.hops.append(hop)
        trace.open_hop = None

    def wire_delay(self, pkt, prop_ns: int) -> None:
        """An impaired link stretched this hop's propagation component."""
        if pkt.trace is not None and pkt.trace.hops:
            pkt.trace.hops[-1].prop_ns = prop_ns

    def pkt_delivered(self, now: int, pkt) -> None:
        if pkt.trace is not None:
            self._finish(pkt.trace, now, "delivered")

    def pkt_dropped(self, now: int, pkt, reason: str) -> None:
        if pkt.trace is not None:
            self._finish(pkt.trace, now, "dropped:" + reason)

    def pkt_corrupted(self, now: int, pkt) -> None:
        """Lost on the wire at end of serialisation: it never propagated."""
        if pkt.trace is not None:
            self.wire_delay(pkt, 0)
            self._finish(pkt.trace, now, "corrupted")

    def withdraw(self, now: int, pkt) -> None:
        """Taken out of the fabric at a fluid entry (repro.fluid.hybrid)."""
        if pkt.trace is not None:
            self._finish(pkt.trace, now, "withdrawn")

    def _finish(self, trace: PacketTrace, now: int, disposition: str) -> None:
        """Terminal event: delivery, drop, wire corruption or withdrawal."""
        trace.end_ns = now
        trace.disposition = disposition
        if disposition == "delivered":
            self.delivered += 1
        elif disposition == "corrupted":
            self.corrupted += 1
        elif disposition == "withdrawn":
            self.withdrawn += 1
        else:
            self.dropped += 1
        self._live.pop(trace.trace_id, None)
        if len(self.traces) < self.MAX_TRACES:
            self.traces.append(trace)
        else:
            self.overflow += 1

    # ------------------------------------------------------------------
    # PFC pause ledger (probe event from Port.set_paused — control path)
    # ------------------------------------------------------------------
    def pause(self, now: int, port: str, prio: int, paused: bool) -> None:
        key = (port, prio)
        if paused:
            self._pause_open.setdefault(key, now)
        else:
            since = self._pause_open.pop(key, None)
            if since is not None:
                self._pause_closed.setdefault(key, []).append((since, now))

    def _pause_overlap(self, port: str, prio: int, t0: int, t1: int) -> int:
        """Total PAUSE time on (port, prio) overlapping the window [t0, t1]."""
        key = (port, prio)
        total = 0
        for since, until in self._pause_closed.get(key, ()):
            lo = since if since > t0 else t0
            hi = until if until < t1 else t1
            if hi > lo:
                total += hi - lo
        since = self._pause_open.get(key)
        if since is not None:
            lo = since if since > t0 else t0
            if t1 > lo:
                total += t1 - lo
        return total

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close traces still in flight at end of run.  Idempotent."""
        if self.finalized:
            return
        self.finalized = True
        # deterministic order: trace ids are allocated in simulation order
        for trace_id in sorted(self._live):
            trace = self._live[trace_id]
            trace.disposition = "in_flight"
            if len(self.traces) < self.MAX_TRACES:
                self.traces.append(trace)
            else:
                self.overflow += 1
        self._live.clear()
        self.traces.sort(key=lambda tr: tr.trace_id)

    def snapshot(self) -> dict:
        """JSON-safe summary (embeddable in experiment result dicts)."""
        return {
            "corrupted": self.corrupted,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "in_flight": len(self._live),
            "overflow": self.overflow,
            "recorded": len(self.traces),
            "sample_every": self.sample_every,
            "started": self.started,
            "withdrawn": self.withdrawn,
        }

    def write_spans_jsonl(self, path: str) -> int:
        """Stream every trace as JSONL: one line per hop span + one summary
        line per packet.  Incremental (constant memory) and flushed on close;
        returns the number of lines written."""
        self.finalize()
        lines = 0
        with open(path, "w") as fh:
            for tr in self.traces:
                for i, hop in enumerate(tr.hops):
                    obj = {"trace": tr.trace_id, "flow": tr.flow_id, "seq": tr.seq,
                           "hop": i}
                    obj.update(hop.to_dict())
                    fh.write(json.dumps(obj))
                    fh.write("\n")
                    lines += 1
                summary = tr.to_dict()
                del summary["hops"]
                summary["kind"] = "summary"
                summary["n_hops"] = len(tr.hops)
                fh.write(json.dumps(summary))
                fh.write("\n")
                lines += 1
            fh.flush()
        return lines
