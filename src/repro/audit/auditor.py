"""Online invariant auditor for the simulation core.

The auditor is the runtime counterpart of the golden-result battery: the
battery proves *that* behaviour is unchanged, the auditor explains *why* a
run is trustworthy by checking conservation and accounting invariants while
the simulation executes.  It is a :mod:`repro.probe` sink: installed (via
:func:`audit_scope`) *before* simulators are built, it subscribes to the
packet, buffer, PFC and sender events of the one probe every component reads,
and to the engine's per-dispatch hook for the clock check.

Invariants (see docs/AUDIT.md for the full semantics):

1. **Packet conservation ledger** — every packet acquired from the pool is
   eventually delivered, dropped (with a reason), corrupted or withdrawn
   from the fabric at a fluid entry; unaccounted releases and leaked
   packets are reconciled at :meth:`Auditor.finalize`.
2. **Buffer byte reconciliation** — ``shared_used`` / ``headroom_used``
   always match an independently-maintained shadow ledger, never go
   negative, never exceed capacity; at finalize they equal the bytes
   resident in the owning switch's port queues.
3. **PFC causality + deadlock watchdog** — RESUME never precedes (or
   doubles) its PAUSE, and a cycle of pauses older than
   ``DEADLOCK_HORIZON_NS`` (50 ms) raises a diagnostic carrying the pause graph.
4. **Sender window accounting** — ``inflight_bytes`` equals the sum of
   sent-unacked payloads after every ACK/RTO/go-back-N event, and a sender
   with pending (re)transmissions always has a timer armed.
5. **Clock monotonicity** — no event executes at a time before the clock
   (checked per event through the engine's dispatch hook).
6. **Fluid byte ledger** — a flow handed to the hybrid core's fluid regime
   has no packet in flight; its fluid credit (the withdrawn window as it
   lands, then the rate's) plus what packets had acked is its sender's
   acked payload at every credit and at the handoff back, and its size
   when it completes; and no sender is in both regimes (a packet sent or
   an ACK taken while its flow is fluid).

The auditor never feeds back into the simulation: it schedules no events,
draws from no RNG and mutates no component state, so an audited run produces
byte-identical results to an unaudited one (pinned by the golden battery's
``--audit`` mode).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..probe import installed
from ..sim.packet import PACKET_POOL, Packet

__all__ = [
    "AuditError",
    "AuditReport",
    "AuditViolation",
    "Auditor",
    "audit_scope",
]


class AuditError(AssertionError):
    """Raised at the violation site when the auditor runs in strict mode."""


class AuditViolation:
    """One invariant violation, recorded at the instant it was detected."""

    __slots__ = ("t", "invariant", "message")

    def __init__(self, t: int, invariant: str, message: str):
        self.t = t
        self.invariant = invariant
        self.message = message

    def to_dict(self) -> dict:
        return {"t": self.t, "invariant": self.invariant, "message": self.message}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AuditViolation t={self.t} {self.invariant}: {self.message}>"


class AuditReport:
    """Reconciled outcome of one audited run (JSON-safe via :meth:`to_dict`)."""

    #: violations kept verbatim; beyond this only the count grows
    MAX_RECORDED = 100

    def __init__(self, mode: str):
        self.mode = mode
        self.violations: List[AuditViolation] = []
        self.violation_count = 0
        #: invariant name -> number of checks performed
        self.checks: Dict[str, int] = {}
        #: packet-conservation ledger totals
        self.ledger: Dict[str, object] = {}
        self.finalized = False

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ok": self.ok,
            "violation_count": self.violation_count,
            "violations": [v.to_dict() for v in self.violations],
            "checks": dict(sorted(self.checks.items())),
            "ledger": self.ledger,
        }


class Auditor:
    """Collects invariant checks from the probe's hook sites.

    Parameters
    ----------
    mode:
        ``"strict"`` raises :class:`AuditError` at the violation site (the
        stack trace points at the buggy mutation); ``"warn"`` records the
        violation and lets the simulation continue.
    recorder:
        Optional :class:`repro.telemetry.Recorder`; violations are mirrored
        onto its ``audit`` event channel so they land in JSONL exports.
    """

    #: a cycle in the PFC pause graph whose every edge has been held longer
    #: than this raises the deadlock-watchdog diagnostic
    DEADLOCK_HORIZON_NS = 50_000_000

    def __init__(self, mode: str = "strict", recorder=None):
        if mode not in ("strict", "warn"):
            raise ValueError(f"audit mode must be 'strict' or 'warn', got {mode!r}")
        self.mode = mode
        self.recorder = recorder
        self.report = AuditReport(mode)
        self._checks = self.report.checks

        # (1) packet conservation ledger
        self.acquired = 0
        self.released = 0
        self.delivered = 0
        self.delivered_bytes = 0
        self.corrupted = 0
        self.withdrawn = 0
        self.dropped: Dict[str, int] = {}
        self.dropped_total = 0

        # (6) fluid byte ledger: flow id -> [payload acked by packets at the
        # handoff to fluid, payload credited in fluid since]
        self._fluid: Dict[int, List[int]] = {}

        # (2) buffer shadows: id(buffer) -> [shared, headroom]
        self._buf_shadow: Dict[int, List[int]] = {}
        self._buffers: List[object] = []

        # (3) PFC state: (switch, in_idx, prio) -> (since_ns, waiter, blocker)
        self._pfc_paused: Dict[Tuple[str, int, int], Tuple[int, str, str]] = {}
        self._deadlocks_reported = 0

        # registered components by kind, walked by finalize()
        self._ports: List[object] = []
        self._switches: List[object] = []
        self._sims: List[object] = []
        self._registry = {"port": self._ports, "switch": self._switches, "sim": self._sims}

        # the process packet pool's live count now: the leak baseline
        self._pool_live0 = PACKET_POOL.live

    # ------------------------------------------------------------------
    # violation plumbing
    # ------------------------------------------------------------------
    def violation(self, t: int, invariant: str, message: str) -> None:
        """Record a violation; raise in strict mode."""
        report = self.report
        report.violation_count += 1
        if len(report.violations) < AuditReport.MAX_RECORDED:
            report.violations.append(AuditViolation(t, invariant, message))
        rec = self.recorder
        if rec is not None:
            rec.audit_violation(t, invariant, message)
        if self.mode == "strict":
            raise AuditError(f"[audit:{invariant}] t={t}: {message}")

    def _count(self, invariant: str, n: int = 1) -> None:
        checks = self._checks
        checks[invariant] = checks.get(invariant, 0) + n

    # ------------------------------------------------------------------
    # component registration (probe event, emitted from constructors)
    # ------------------------------------------------------------------
    def register(self, kind: str, obj) -> None:
        group = self._registry.get(kind)
        if group is not None:
            group.append(obj)

    # ------------------------------------------------------------------
    # (1) packet conservation ledger
    # ------------------------------------------------------------------
    def packet_acquired(self) -> None:
        self.acquired += 1

    def packet_released(self) -> None:
        self.released += 1

    def pkt_delivered(self, t: int, pkt) -> None:
        self.delivered += 1
        self.delivered_bytes += pkt.size

    def pkt_dropped(self, t: int, pkt, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1
        self.dropped_total += 1

    def pkt_corrupted(self, t: int, pkt) -> None:
        self.corrupted += 1

    def withdraw(self, t: int, pkt) -> None:
        self.withdrawn += 1

    # ------------------------------------------------------------------
    # (2) buffer byte reconciliation
    # ------------------------------------------------------------------
    def _buffer_shadow(self, buf, d_shared: int, d_headroom: int) -> List[int]:
        shadow = self._buf_shadow.get(id(buf))
        if shadow is None:
            # late registration: seed the shadow from the pre-op state so a
            # buffer that carried traffic before the auditor was installed
            # reconciles from here on
            shadow = [buf.shared_used - d_shared, buf.headroom_used - d_headroom]
            self._buf_shadow[id(buf)] = shadow
            self._buffers.append(buf)
        return shadow

    def buffer(self, t: int, buf, headroom: bool, delta: int) -> None:
        """Called *after* ``delta`` bytes were admitted to (positive) or
        returned from (negative) the shared or headroom pool."""
        self._count("buffer_bytes")
        d_shared, d_headroom = (0, delta) if headroom else (delta, 0)
        shadow = self._buffer_shadow(buf, d_shared, d_headroom)
        shadow[0] += d_shared
        shadow[1] += d_headroom
        self._buffer_check(t, buf, shadow)

    def _buffer_check(self, t: int, buf, shadow: List[int]) -> None:
        name = getattr(buf, "name", "") or f"buffer@{id(buf):x}"
        if buf.shared_used != shadow[0] or buf.headroom_used != shadow[1]:
            self.violation(
                t,
                "buffer_bytes",
                f"{name}: accounting drifted from shadow ledger "
                f"(shared {buf.shared_used} != {shadow[0]} or "
                f"headroom {buf.headroom_used} != {shadow[1]})",
            )
        if buf.shared_used < 0 or buf.headroom_used < 0:
            self.violation(
                t,
                "buffer_bytes",
                f"{name}: negative occupancy (shared={buf.shared_used}, "
                f"headroom={buf.headroom_used})",
            )
        if buf.shared_used > buf.shared_capacity:
            self.violation(
                t,
                "buffer_bytes",
                f"{name}: shared pool over capacity "
                f"({buf.shared_used} > {buf.shared_capacity})",
            )
        if buf.headroom_used > buf.headroom_capacity:
            self.violation(
                t,
                "buffer_bytes",
                f"{name}: headroom over capacity "
                f"({buf.headroom_used} > {buf.headroom_capacity})",
            )

    # ------------------------------------------------------------------
    # (3) PFC causality + deadlock watchdog
    # ------------------------------------------------------------------
    @staticmethod
    def _node_of_port(port_name: str) -> str:
        # "switch3.p2" / "host0.nic" -> owning node name
        return port_name.rsplit(".", 1)[0] if "." in port_name else port_name

    def pfc(
        self, t: int, switch: str, upstream: str, in_idx: int, prio: int, paused: bool,
        backlog_bytes: int,
    ) -> None:
        """One PAUSE/RESUME emission by ``switch`` against ingress ``in_idx``."""
        self._count("pfc_causality")
        key = (switch, in_idx, prio)
        held = self._pfc_paused.get(key)
        if paused:
            if held is not None:
                self.violation(
                    t,
                    "pfc_causality",
                    f"{switch} in={in_idx} prio={prio}: PAUSE while already "
                    f"paused since t={held[0]} (double pause)",
                )
            waiter = self._node_of_port(upstream) if upstream else ""
            self._pfc_paused[key] = (t, waiter, switch)
        else:
            if held is None:
                self.violation(
                    t,
                    "pfc_causality",
                    f"{switch} in={in_idx} prio={prio}: RESUME without a "
                    f"preceding PAUSE",
                )
                return
            if t < held[0]:
                self.violation(
                    t,
                    "pfc_causality",
                    f"{switch} in={in_idx} prio={prio}: RESUME at t={t} "
                    f"precedes its PAUSE at t={held[0]}",
                )
            del self._pfc_paused[key]
        self._check_deadlock(t)

    def pfc_backlog(self, t: int, key, backlog_bytes: int) -> None:
        """Per-(ingress, priority) byte counter after an enqueue/dequeue."""
        self._count("pfc_backlog")
        if backlog_bytes < 0:
            self.violation(
                t, "pfc_causality", f"{key}: ingress backlog negative ({backlog_bytes})"
            )

    def _pause_graph(self, t: int):
        """Current pause edges ``waiter -> blocker`` held past the horizon."""
        edges: Dict[str, List[str]] = {}
        held = []
        for (switch, in_idx, prio), (since, waiter, blocker) in self._pfc_paused.items():
            if t - since < self.DEADLOCK_HORIZON_NS or not waiter:
                continue
            edges.setdefault(waiter, []).append(blocker)
            held.append((switch, in_idx, prio, since, waiter))
        return edges, held

    @staticmethod
    def _find_cycle(edges: Dict[str, List[str]]) -> Optional[List[str]]:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {n: WHITE for n in edges}
        stack_path: List[str] = []

        def visit(node: str) -> Optional[List[str]]:
            color[node] = GREY
            stack_path.append(node)
            for nxt in edges.get(node, ()):
                c = color.get(nxt, WHITE)
                if c == GREY:
                    return stack_path[stack_path.index(nxt):] + [nxt]
                if c == WHITE and nxt in edges:
                    found = visit(nxt)
                    if found:
                        return found
            color[node] = BLACK
            stack_path.pop()
            return None

        for node in list(edges):
            if color[node] == WHITE:
                found = visit(node)
                if found:
                    return found
        return None

    def _check_deadlock(self, t: int) -> None:
        self._count("pfc_deadlock")
        edges, held = self._pause_graph(t)
        if not edges:
            return
        cycle = self._find_cycle(edges)
        if cycle is not None and not self._deadlocks_reported:
            self._deadlocks_reported += 1
            graph = "; ".join(
                f"{sw}[in={i},prio={p}] paused {w} since t={since}"
                for (sw, i, p, since, w) in held
            )
            self.violation(
                t,
                "pfc_deadlock",
                f"pause cycle {' -> '.join(cycle)} held beyond "
                f"{self.DEADLOCK_HORIZON_NS}ns horizon; pause graph: {graph}",
            )

    # ------------------------------------------------------------------
    # (4) sender window accounting
    # ------------------------------------------------------------------
    def sender_event(self, t: int, sender) -> None:
        """Reconcile ``inflight_bytes`` after an ACK/RTO/go-back-N event."""
        if sender.completed:
            return
        if self._fluid:
            self._packet_path(t, sender.flow.flow_id, "took an ACK")
        self._count("sender_window")
        sent = sender.sent
        acked = sender.acked
        mtu = sender.mtu
        n = sender.n_packets
        expected = 0
        for i in range(n - 1):
            if sent[i] and not acked[i]:
                expected += mtu
        if n and sent[n - 1] and not acked[n - 1]:
            expected += sender._last_payload
        fid = sender.flow.flow_id
        if expected != sender.inflight_bytes:
            self.violation(
                t,
                "sender_window",
                f"flow {fid}: inflight_bytes={sender.inflight_bytes} but "
                f"sent-unacked payloads total {expected}",
            )
        if sender.inflight_bytes < 0:
            self.violation(
                t, "sender_window", f"flow {fid}: negative inflight ({sender.inflight_bytes})"
            )
        # liveness: pending work must always have a wake-up source armed —
        # an RTO, a pace timer, or an outstanding/armed probe.  This is the
        # invariant the historical _disarm_rto_if_idle bug broke (a probe ACK
        # disarmed the RTO while go-back-N retransmissions sat queued).
        if (
            sender._rto_ev is None
            and sender._pace_ev is None
            and sender._probe_ev is None
            and not sender.probe_outstanding
            and sender.inflight_bytes == 0
        ):
            retx_pending = any(not acked[s] for s in sender._retx_queue)
            if retx_pending:
                self.violation(
                    t,
                    "sender_window",
                    f"flow {fid}: retransmit queue non-empty with no timer "
                    f"armed (RTO wrongly disarmed — the flow can stall)",
                )

    #: probe events that end in a window reconciliation
    rto = sender_event

    def ack(self, t: int, sender, acked_bytes: int, delay_ns: int, is_probe: bool) -> None:
        self.sender_event(t, sender)

    def flow_state(self, t: int, flow_id: int, state: str, sender) -> None:
        """A relinquished flow must own a probe (its only path back); a flow
        finishing in fluid closes its byte ledger at its size."""
        if state == "done":
            entry = self._fluid.pop(flow_id, None)
            if entry is not None:
                self._fluid_check(t, sender, entry, sender.flow.size_bytes, "completes")
            return
        if state != "relinquished":
            return
        self._count("prioplus_probe")
        if sender._probe_ev is None and not sender.probe_outstanding:
            self.violation(
                t,
                "prioplus_probe",
                f"flow {sender.flow.flow_id}: relinquished without an armed "
                f"probe — the flow can never resume",
            )

    # ------------------------------------------------------------------
    # (6) fluid byte ledger (hybrid core)
    # ------------------------------------------------------------------
    def handoff(self, t: int, sender, regime: str) -> None:
        """``sender`` crosses to ``regime`` (``"fluid"`` / ``"packet"``)."""
        self._count("fluid_ledger")
        fid = sender.flow.flow_id
        if regime == "fluid":
            if fid in self._fluid:
                self.violation(t, "fluid_ledger", f"flow {fid}: handed to fluid twice")
            if sender.inflight_bytes or sender.probe_outstanding:
                self.violation(
                    t,
                    "fluid_ledger",
                    f"flow {fid}: handed to fluid with {sender.inflight_bytes} bytes in "
                    f"flight (probe outstanding: {sender.probe_outstanding})",
                )
            self._fluid[fid] = [sender.acked_payload, 0]
            return
        entry = self._fluid.pop(fid, None)
        if entry is None:
            self.violation(t, "fluid_ledger", f"flow {fid}: handed back to packets, never to fluid")
            return
        self._fluid_check(t, sender, entry, sender.acked_payload, "is handed back")

    def fluid_credit(self, t: int, sender, payload_bytes: int) -> None:
        """One settlement's credit to a fluid flow, after its acked counters
        moved (never the counters ``_show`` runs ahead)."""
        self._count("fluid_ledger")
        fid = sender.flow.flow_id
        entry = self._fluid.get(fid)
        if entry is None:
            self.violation(t, "fluid_ledger", f"flow {fid}: fluid credit outside fluid")
            return
        entry[1] += payload_bytes
        self._fluid_check(t, sender, entry, sender.acked_payload, "is credited")

    def _fluid_check(self, t: int, sender, entry: List[int], want: int, when: str) -> None:
        acked, credited = entry
        size = sender.flow.size_bytes
        if acked + credited != want or sender.acked_payload > size:
            self.violation(
                t,
                "fluid_ledger",
                f"flow {sender.flow.flow_id} {when}: {acked} bytes acked by packets + "
                f"{credited} credited in fluid != {want} (acked payload "
                f"{sender.acked_payload}, size {size})",
            )

    def _packet_path(self, t: int, flow_id: int, what: str) -> None:
        if flow_id in self._fluid:
            self.violation(
                t, "fluid_ledger", f"flow {flow_id} {what} on the packet path while fluid"
            )

    def pkt_sent(self, t: int, pkt) -> None:
        if self._fluid:
            self._packet_path(t, pkt.flow_id, "sent a packet")

    # ------------------------------------------------------------------
    # (5) clock monotonicity (the engine's per-dispatch hook)
    # ------------------------------------------------------------------
    def pre_dispatch(self, sim, event_time: int) -> None:
        now = sim.now
        if event_time < now:
            self.violation(
                now,
                "clock",
                f"event scheduled at t={event_time} executed after the clock "
                f"reached {now} (events-in-past / heap corruption)",
            )

    def run_end(self, sim, n: int) -> None:
        self._count("clock", n)

    # ------------------------------------------------------------------
    # finalize: deep reconciliation at end of run
    # ------------------------------------------------------------------
    def _resident_packets(self) -> Tuple[int, int]:
        """(packets in registered port queues, packets in pending events)."""
        queued = 0
        for port in self._ports:
            for queue in port.queues.values():
                queued += len(queue)
        in_events = 0
        for sim in self._sims:
            for entry in sim._heap:
                if len(entry) == 4:
                    args = entry[3]
                else:
                    ev = entry[2]
                    if ev.cancelled:
                        continue
                    args = ev.args
                for arg in args:
                    if isinstance(arg, Packet):
                        in_events += 1
        return queued, in_events

    def _finalize_ledger(self, t: int) -> None:
        self._count("packet_ledger")
        classified = self.delivered + self.dropped_total + self.corrupted + self.withdrawn
        if classified != self.released:
            self.violation(
                t,
                "packet_ledger",
                f"{self.released} packets released but {classified} classified "
                f"(delivered={self.delivered}, dropped={self.dropped_total}, "
                f"corrupted={self.corrupted}, withdrawn={self.withdrawn}) — a "
                f"release site is missing its delivery/drop classification",
            )
        residual = self.acquired - self.released
        if residual < 0:
            self.violation(
                t,
                "packet_ledger",
                f"more releases ({self.released}) than acquisitions "
                f"({self.acquired}) — double release or foreign packet",
            )
        queued, in_events = self._resident_packets()
        if residual != queued + in_events:
            self.violation(
                t,
                "packet_ledger",
                f"{residual} packets unaccounted for but only {queued} resident "
                f"in queues and {in_events} in pending events — "
                f"{residual - queued - in_events} leaked",
            )
        pool_live = PACKET_POOL.live - self._pool_live0
        if pool_live != residual:
            self.violation(
                t,
                "packet_ledger",
                f"pool live-count delta ({pool_live}) disagrees with ledger "
                f"residual ({residual}) — packets bypassed the pool",
            )
        self.report.ledger = {
            "acquired": self.acquired,
            "released": self.released,
            "delivered": self.delivered,
            "delivered_bytes": self.delivered_bytes,
            "corrupted": self.corrupted,
            "withdrawn": self.withdrawn,
            "dropped": dict(sorted(self.dropped.items())),
            "dropped_total": self.dropped_total,
            "residual": residual,
            "resident_in_queues": queued,
            "resident_in_events": in_events,
            "pool_live_delta": pool_live,
        }

    def _finalize_buffers(self, t: int) -> None:
        for buf in self._buffers:
            self._buffer_check(t, buf, self._buf_shadow[id(buf)])
        for switch in self._switches:
            buf = switch.buffer
            if buf is None:
                continue
            self._count("buffer_bytes")
            resident = sum(p.total_bytes for p in switch.ports)
            charged = buf.shared_used + buf.headroom_used
            if charged != resident:
                self.violation(
                    t,
                    "buffer_bytes",
                    f"{switch.name}: buffer charges {charged} bytes but port "
                    f"queues hold {resident} bytes",
                )
            stats = switch.buffer.stats
            by_reason = sum(stats.dropped_by_reason.values())
            if stats.dropped != by_reason:
                self.violation(
                    t,
                    "buffer_bytes",
                    f"{switch.name}: stats.dropped={stats.dropped} but "
                    f"per-reason drops total {by_reason} (double/under-count)",
                )
        # switch drop stats must agree with the conservation ledger
        # reason-for-reason: a packet rejected by the shared pool and then by
        # headroom is ONE drop in both, so a legacy-style double count
        # (record_drop at each rejection) surfaces here.  link_cut drops are
        # port-level and never pass through record_drop.
        if self._switches:
            stats_by_reason: Dict[str, int] = {}
            for switch in self._switches:
                if switch.buffer is None:
                    continue
                for r, n in switch.buffer.stats.dropped_by_reason.items():
                    stats_by_reason[r] = stats_by_reason.get(r, 0) + n
            # sorted: set-union iteration order varies with string-hash
            # randomization, which made violation order differ run to run
            for r in sorted(set(stats_by_reason) | set(self.dropped)):
                if r == "link_cut":
                    continue
                self._count("drop_accounting")
                s, led = stats_by_reason.get(r, 0), self.dropped.get(r, 0)
                if s != led:
                    self.violation(
                        t,
                        "drop_accounting",
                        f"buffer stats record {s} '{r}' drops but the packet "
                        f"ledger classified {led} — drop double/under-count or "
                        f"reason mismatch between telemetry and ledger",
                    )

    def _finalize_ports(self, t: int) -> None:
        for port in self._ports:
            self._count("port_queues")
            qbytes_sum = sum(port.qbytes)
            if qbytes_sum != port.total_bytes:
                self.violation(
                    t,
                    "port_queues",
                    f"{port.name}: total_bytes={port.total_bytes} but per-queue "
                    f"bytes sum to {qbytes_sum}",
                )
            for q in range(port.n_queues):
                # read, never create: a queue exists from its first enqueue
                queue = port.queues.get(q, ())
                actual = sum(p.size for p in queue)
                if actual != port.qbytes[q]:
                    self.violation(
                        t,
                        "port_queues",
                        f"{port.name}: queue {q} holds {actual} bytes but "
                        f"qbytes records {port.qbytes[q]}",
                    )
                active = bool(port._active >> q & 1)
                if active != bool(queue):
                    self.violation(
                        t,
                        "port_queues",
                        f"{port.name}: active bitmask bit {q} is {active} but "
                        f"queue has {len(queue)} packets",
                    )

    def finalize(self) -> AuditReport:
        """End-of-run reconciliation.  Idempotent; returns the report."""
        report = self.report
        if report.finalized:
            return report
        report.finalized = True
        t = max((sim.now for sim in self._sims), default=0)
        # a pause still held at the end is only a violation if it closes a
        # stale cycle; re-run the watchdog one last time
        if self._pfc_paused:
            self._check_deadlock(t)
        self._finalize_buffers(t)
        self._finalize_ports(t)
        self._finalize_ledger(t)
        return report


@contextmanager
def audit_scope(mode: str = "strict", **kwargs):
    """Install a fresh :class:`Auditor` for the ``with`` block.

    On clean exit the previous probe is restored and the auditor finalized
    (strict mode re-raises any reconciliation failure)::

        with audit_scope("strict") as aud:
            sim = Simulator(seed=1)   # adopts a probe carrying aud
            ...
        assert aud.report.ok
    """
    aud = Auditor(mode=mode, **kwargs)
    with installed(aud):
        yield aud
    aud.finalize()
