"""Flight recorder: typed event channels + aggregate metrics.

A :class:`Recorder` is a :mod:`repro.probe` sink: install it with
``repro.probe.installed(rec)`` *before* building simulators and it receives
the probe events it defines a handler for.  Design constraints:

1. **No feedback into the simulation.**  The recorder never touches the
   event heap or the simulation RNG; installing it must leave results
   byte-identical (tested in ``tests/test_probe.py``).
2. **Structured, not stringly.**  Each channel event is a fixed-shape tuple
   (field names in :data:`CHANNEL_FIELDS`) that the writers consume without
   parsing.
3. **Nothing kept.**  Each tuple goes to the attached writers
   (:mod:`repro.telemetry.export`) the moment it is recorded; the recorder
   itself keeps only per-channel counts and metrics, so memory does not
   grow with the run.

Event taxonomy (channel → tuple layout):

========== =============================================================
flow_state ``(t, flow_id, state)`` — lifecycle + PrioPlus machine states
cwnd       ``(t, flow_id, cwnd_bytes, delay_ns)`` — after every ACK
probe      ``(t, flow_id, kind)`` — ``"send"`` / ``"ack"``
cc         ``(t, flow_id, kind)`` — per-RTT CC decisions (instants)
ecn        ``(t, port, queue)`` — a packet was ECN-marked at enqueue
pfc        ``(t, switch, in_idx, prio, paused, backlog_bytes)``
queue      ``(t, port, queue, queue_bytes, total_bytes)`` — on change
link       ``(t, port, busy)`` — egress transmit busy/idle transitions
buffer     ``(t, switch, shared_used, headroom_used)`` — on change
drop       ``(t, switch, size, priority, reason)`` — shared-buffer tail drop
fault      ``(t, kind, target, phase)`` — fault-injection lifecycle
           (phase: ``inject`` / ``clear`` / ``reconverge``, see repro.faults)
audit      ``(t, invariant, message)`` — invariant violations (repro.audit,
           warn mode; strict mode aborts at the first violation instead)
regime     ``(t, mode, reason, n_flows, n_withdrawn)`` — hybrid-core regime
           switches (mode: ``packet`` / ``fluid``, see repro.fluid.hybrid)
========== =============================================================

Every ``Simulator`` built under the recorder starts a new *run* (its clock
restarts at zero): writers hear ``end_run(t)`` with the previous run's last
timestamp, so a trace can keep the runs of one experiment apart.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..probe import current
from ..sim.packet import PROBE
from .metrics import Gauge, MetricsRegistry

__all__ = ["CHANNELS", "CHANNEL_FIELDS", "Recorder", "current_recorder"]

#: channel -> the field names of its tuples (also the JSONL keys)
CHANNEL_FIELDS: Dict[str, Tuple[str, ...]] = {
    "flow_state": ("t", "flow_id", "state"),
    "cwnd": ("t", "flow_id", "cwnd_bytes", "delay_ns"),
    "probe": ("t", "flow_id", "kind"),
    "cc": ("t", "flow_id", "kind"),
    "ecn": ("t", "port", "queue"),
    "pfc": ("t", "switch", "in_idx", "prio", "paused", "backlog_bytes"),
    "queue": ("t", "port", "queue", "queue_bytes", "total_bytes"),
    "link": ("t", "port", "busy"),
    "buffer": ("t", "switch", "shared_used", "headroom_used"),
    "drop": ("t", "switch", "size", "priority", "reason"),
    "fault": ("t", "kind", "target", "phase"),
    "audit": ("t", "invariant", "message"),
    "regime": ("t", "mode", "reason", "n_flows", "n_withdrawn"),
}

#: every event channel a :class:`Recorder` can record
CHANNELS: Tuple[str, ...] = tuple(CHANNEL_FIELDS)


class Recorder:
    """Turns probe events into channel tuples and aggregate metrics.

    Each tuple goes, as it is recorded, to every writer passed in: an object
    with ``write(channel, tuple)``, ``end_run(t)`` and ``close()``, such as
    :class:`~repro.telemetry.export.JsonlWriter` or
    :class:`~repro.telemetry.export.PerfettoWriter`.  With none the recorder
    keeps metrics and per-channel counts only.  :meth:`close` ends the last
    run and closes the writers.
    """

    def __init__(self, *writers):
        self.writers = writers
        #: channel -> tuples recorded, whatever the writers
        self.counts: Dict[str, int] = dict.fromkeys(CHANNELS, 0)
        self.metrics = MetricsRegistry()
        #: the latest timestamp of the current run, and of the runs before it
        self._run_ts = 0
        self._past_ts = 0
        # hot-path metric handles (avoid name lookups per event)
        m = self.metrics
        self._c_ecn = m.counter("ecn.marks")
        self._c_drop = m.counter("buffer.drops")
        self._c_drop_bytes = m.counter("buffer.dropped_bytes")
        self._c_pause = m.counter("pfc.pauses")
        self._c_resume = m.counter("pfc.resumes")
        self._c_probe_send = m.counter("probe.sent")
        self._c_probe_ack = m.counter("probe.acked")
        self._c_sim_events = m.counter("sim.events")
        self._h_delay = m.histogram("delay_ns")
        self._h_cwnd = m.histogram("cwnd_bytes")
        self._port_gauges: Dict[str, Gauge] = {}
        self._buffer_gauges: Dict[str, Gauge] = {}

    @property
    def max_ts(self) -> int:
        """The latest timestamp recorded in any run."""
        return max(self._past_ts, self._run_ts)

    def _record(self, ch: str, ev: tuple) -> None:
        t = ev[0]
        if t > self._run_ts:
            self._run_ts = t
        self.counts[ch] += 1
        for writer in self.writers:
            writer.write(ch, ev)

    def register(self, kind: str, obj) -> None:
        """A new simulator starts a new run: its clock restarts at zero."""
        if kind == "sim":
            self._end_run()

    def _end_run(self) -> None:
        for writer in self.writers:
            writer.end_run(self._run_ts)
        self._past_ts = self.max_ts
        self._run_ts = 0

    # ------------------------------------------------------------------
    # typed channels (probe event handlers, plus the writers they share)
    # ------------------------------------------------------------------
    def flow_state(self, t: int, flow_id: int, state: str, sender=None) -> None:
        self._record("flow_state", (t, flow_id, state))
        self.metrics.counter(f"flow_state.{state}").inc()

    def cwnd_update(self, t: int, flow_id: int, cwnd_bytes: float, delay_ns: int) -> None:
        self._record("cwnd", (t, flow_id, cwnd_bytes, delay_ns))
        self._h_delay.observe(delay_ns)
        self._h_cwnd.observe(cwnd_bytes)

    def probe(self, t: int, flow_id: int, kind: str) -> None:
        self._record("probe", (t, flow_id, kind))
        (self._c_probe_send if kind == "send" else self._c_probe_ack).inc()

    def ack(self, t: int, sender, acked_bytes: int, delay_ns: int, is_probe: bool) -> None:
        flow_id = sender.flow.flow_id
        if is_probe:
            self.probe(t, flow_id, "ack")
        self.cwnd_update(t, flow_id, sender.cc.cwnd, delay_ns)

    def pkt_sent(self, t: int, pkt) -> None:
        if pkt.kind == PROBE:
            self.probe(t, pkt.flow_id, "send")

    def cc_event(self, t: int, flow_id: int, kind: str) -> None:
        self._record("cc", (t, flow_id, kind))
        self.metrics.counter(f"cc.{kind}").inc()

    def ecn_mark(self, t: int, port: str, queue: int) -> None:
        self._record("ecn", (t, port, queue))
        self._c_ecn.inc()

    def pfc(
        self, t: int, switch: str, upstream_port, in_idx: int, prio: int, paused: bool,
        backlog: int,
    ) -> None:
        """One PAUSE/RESUME; ``upstream_port`` feeds the auditor's wait
        graph and is not part of the channel tuple."""
        self._record("pfc", (t, switch, in_idx, prio, paused, backlog))
        (self._c_pause if paused else self._c_resume).inc()

    def queue_depth(self, t: int, port: str, queue: int, qbytes: int, total: int) -> None:
        self._record("queue", (t, port, queue, qbytes, total))
        g = self._port_gauges.get(port)
        if g is None:
            g = self._port_gauges[port] = self.metrics.gauge(f"queue_bytes.{port}")
        g.set(t, total)

    def enqueue(self, t, port, queue, qbytes, total, ecn_marked, pkt) -> None:
        if ecn_marked:
            self.ecn_mark(t, port, queue)
        self.queue_depth(t, port, queue, qbytes, total)

    def dequeue(self, t, port, queue, qbytes, total, pkt, tx_ns, prop_ns) -> None:
        self.queue_depth(t, port, queue, qbytes, total)
        self.link(t, port, True)

    def link(self, t: int, port: str, busy: bool) -> None:
        self._record("link", (t, port, busy))

    def buffer(self, t: int, buf, from_headroom: bool, delta: int) -> None:
        """``buf``'s occupancy after an admit/release of ``delta`` bytes."""
        if buf.sim is None:
            raise RuntimeError(
                "SharedBuffer reports to a live recorder but has no clock or "
                "name: call bind_telemetry(sim, name) before admitting packets"
            )
        switch, shared_used, headroom_used = buf.name, buf.shared_used, buf.headroom_used
        self._record("buffer", (t, switch, shared_used, headroom_used))
        g = self._buffer_gauges.get(switch)
        if g is None:
            g = self._buffer_gauges[switch] = self.metrics.gauge(f"buffer_bytes.{switch}")
        g.set(t, shared_used + headroom_used)

    def run_end(self, sim, n: int) -> None:
        """``n`` engine events executed by one :meth:`Simulator.run`.
        Metrics-only — no event channel — so the counter ``sim.events``
        cheaply answers "did any simulation run?", which is how the runner's
        cache tests prove a warm rerun skips the simulator entirely."""
        if n:
            if sim.now > self._run_ts:
                self._run_ts = sim.now
            self._c_sim_events.inc(n)

    def fault(self, t: int, kind: str, target: str, phase: str) -> None:
        """One fault-injection lifecycle transition (see :mod:`repro.faults`).

        ``kind`` is the fault type (``link_down`` / ``link_degrade``),
        ``target`` the affected link, ``phase`` one of ``inject`` / ``clear``
        / ``reconverge``.
        """
        self._record("fault", (t, kind, target, phase))
        self.metrics.counter(f"faults.{phase}").inc()

    def buffer_drop(self, t: int, switch: str, size: int, priority: int, reason: str) -> None:
        """One rejected packet; ``reason`` matches the audit ledger's taxonomy
        (``buffer_shared`` / ``buffer_headroom`` / ``blackhole``)."""
        self._record("drop", (t, switch, size, priority, reason))
        self._c_drop.inc()
        self._c_drop_bytes.inc(size)
        self.metrics.counter(f"buffer.drops.{reason}").inc()

    def audit_violation(self, t: int, invariant: str, message: str) -> None:
        """One invariant violation surfaced by :mod:`repro.audit` (warn mode)."""
        self._record("audit", (t, invariant, message))
        self.metrics.counter(f"audit.{invariant}").inc()

    def regime(self, t: int, mode: str, reason: str, n_flows: int, n_withdrawn: int) -> None:
        """One hybrid-core regime switch (:mod:`repro.fluid.hybrid`).

        ``mode`` is the regime being *entered* (``"fluid"`` / ``"packet"``),
        ``reason`` why the previous one ended (``"quiescent"``,
        ``"contention:..."``, ``"deadline"``, ...), ``n_flows`` the number of
        flows handed across the boundary, ``n_withdrawn`` the packets taken
        out of the fabric to enter fluid (0 entering packets).
        """
        self._record("regime", (t, mode, reason, n_flows, n_withdrawn))
        self.metrics.counter(f"regime.{mode}").inc()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def event_counts(self) -> Dict[str, int]:
        # sorted by channel name so dumps/goldens diff stably
        return {ch: n for ch, n in sorted(self.counts.items()) if n}

    def snapshot(self) -> dict:
        """Per-run summary, safe to embed in an experiment's result dict."""
        return {
            "event_counts": self.event_counts(),
            "metrics": self.metrics.snapshot(until_t=self.max_ts),
        }

    def close(self) -> None:
        """End the last run and close every writer."""
        self._end_run()
        for writer in self.writers:
            writer.close()


def current_recorder() -> Optional[Recorder]:
    """The installed :class:`Recorder`, or ``None`` when telemetry is off."""
    return current(Recorder)
