"""Trace exporters: JSONL event dumps and Chrome/Perfetto ``trace_event`` JSON.

``to_perfetto`` renders a whole simulation as a trace that opens directly in
`ui.perfetto.dev <https://ui.perfetto.dev>`_ (or ``chrome://tracing``):

* **flows** process — one thread per flow with B/E spans for every
  flow/PrioPlus state, counter tracks for cwnd and measured delay, and
  instant events for probes and per-RTT CC decisions;
* **ports** process — one thread per egress port with transmit busy spans,
  ECN-mark instants, and per-queue byte-occupancy counters;
* **pfc** process — one thread per (switch, ingress, priority) with a PAUSE
  span for every pause/resume pair;
* **buffers** process — shared/headroom occupancy counters and drop instants
  per switch.

Timestamps are emitted in microseconds (the format's unit) from the engine's
integer-nanosecond clock; events are sorted and B/E pairs always match (spans
still open at the end of the recording are closed at the trace's last
timestamp).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .recorder import Recorder

__all__ = ["JsonlEventStream", "to_perfetto", "write_perfetto", "write_events_jsonl"]

_FLOWS_PID = 1
_PORTS_PID = 2
_PFC_PID = 3
_BUFFERS_PID = 4
_FAULTS_PID = 5
_PACKETS_PID = 6
_REGIME_PID = 7

#: JSONL field names per channel (kept in sync with the Recorder tuples)
_JSONL_FIELDS: Dict[str, Tuple[str, ...]] = {
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
    "regime": ("t", "mode", "reason", "n_flows"),
}


def write_events_jsonl(recorder: Recorder, path: str) -> int:
    """Dump every recorded event as one JSON object per line.

    Events are merged across channels in timestamp order; each line carries
    ``ch`` (the channel name) plus the channel's named fields.  Returns the
    number of lines written.
    """
    rows: List[Tuple[int, int, str]] = []
    seq = 0
    for ch, events in recorder.events.items():
        fields = _JSONL_FIELDS[ch]
        for ev in events:
            obj = {"ch": ch}
            obj.update(zip(fields, ev))
            rows.append((ev[0], seq, json.dumps(obj)))
            seq += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w") as fh:
        for _, _, line in rows:
            fh.write(line)
            fh.write("\n")
    return len(rows)


class _StreamList:
    """Channel-list stand-in that writes each appended event straight to disk.

    Quacks enough like the list the :class:`Recorder` appends to —
    ``append``/``len``/``bool``/``clear`` — that recorder hook methods and
    ``event_counts()`` work unchanged.  Reading events back is impossible by
    design (they were never retained); iteration raises so exporters that
    need in-memory events fail loudly instead of silently exporting nothing.
    """

    __slots__ = ("_ch", "_fields", "_stream", "count")

    def __init__(self, ch: str, fields: Tuple[str, ...], stream: "JsonlEventStream"):
        self._ch = ch
        self._fields = fields
        self._stream = stream
        self.count = 0

    def append(self, ev: tuple) -> None:
        obj = {"ch": self._ch}
        obj.update(zip(self._fields, ev))
        self._stream._write_line(json.dumps(obj))
        self.count += 1

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def clear(self) -> None:
        self.count = 0

    def __iter__(self):
        raise RuntimeError(
            f"channel {self._ch!r} is streamed to disk by JsonlEventStream; "
            "in-memory iteration is unavailable while streaming is active"
        )


class JsonlEventStream:
    """Streams a recorder's events to a JSONL file as they are recorded.

    Where :func:`write_events_jsonl` buffers every event in memory and sorts
    at the end, this exporter swaps each channel's event list for a
    :class:`_StreamList` that serialises events the moment they are appended
    — constant memory regardless of run length.  Lines appear in *recording*
    order (simulation order, up to same-tick interleaving across channels);
    consumers needing strict timestamp order can sort by ``t`` afterwards.

    Use as a context manager, or call :meth:`finalize` explicitly (flushes
    and closes the file, and restores fresh in-memory channel lists)::

        rec = Recorder()
        with JsonlEventStream(rec, "events.jsonl"), installed(rec):
            ...run...
    """

    def __init__(self, recorder: Recorder, path: str):
        self.recorder = recorder
        self.path = path
        self.lines = 0
        self._fh = open(path, "w")
        self.finalized = False
        for ch in recorder.events:
            recorder.events[ch] = _StreamList(ch, _JSONL_FIELDS[ch], self)

    def _write_line(self, line: str) -> None:
        self._fh.write(line)
        self._fh.write("\n")
        self.lines += 1

    def finalize(self) -> int:
        """Flush + close the file and detach from the recorder.  Idempotent;
        returns the number of lines written."""
        if self.finalized:
            return self.lines
        self.finalized = True
        self._fh.flush()
        self._fh.close()
        # hand the recorder fresh lists so later use doesn't hit a closed file
        self.recorder.events = {ch: [] for ch in self.recorder.events}
        return self.lines

    def __enter__(self) -> "JsonlEventStream":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()


class _TraceBuilder:
    """Accumulates trace events with stable (ts, emission-order) sorting."""

    def __init__(self):
        self.events: List[tuple] = []  # (t_ns, seq, json_obj)
        self._seq = 0
        self._meta: List[dict] = []
        self._tids: Dict[Tuple[int, object], int] = {}

    def meta(self, pid: int, name: str, tid: int = 0, kind: str = "process_name") -> None:
        self._meta.append(
            {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}
        )

    def tid_for(self, pid: int, key: object, label: str) -> int:
        tid = self._tids.get((pid, key))
        if tid is None:
            tid = len([k for k in self._tids if k[0] == pid]) + 1
            self._tids[(pid, key)] = tid
            self.meta(pid, label, tid, kind="thread_name")
        return tid

    def add(self, t_ns: int, obj: dict) -> None:
        obj["ts"] = t_ns / 1000.0  # trace_event timestamps are microseconds
        self.events.append((t_ns, self._seq, obj))
        self._seq += 1

    def span_begin(self, t: int, pid: int, tid: int, name: str, cat: str, args=None) -> None:
        obj = {"name": name, "cat": cat, "ph": "B", "pid": pid, "tid": tid}
        if args:
            obj["args"] = args
        self.add(t, obj)

    def span_end(self, t: int, pid: int, tid: int) -> None:
        self.add(t, {"ph": "E", "pid": pid, "tid": tid})

    def instant(self, t: int, pid: int, tid: int, name: str, cat: str, args=None) -> None:
        obj = {"name": name, "cat": cat, "ph": "i", "s": "t", "pid": pid, "tid": tid}
        if args:
            obj["args"] = args
        self.add(t, obj)

    def counter(self, t: int, pid: int, name: str, args: dict) -> None:
        self.add(t, {"name": name, "cat": "counter", "ph": "C", "pid": pid, "args": args})

    def render(self) -> List[dict]:
        self.events.sort(key=lambda e: (e[0], e[1]))
        return self._meta + [obj for _, _, obj in self.events]


def to_perfetto(recorder: Recorder, tracer=None) -> dict:
    """Convert a recorder's events to a Chrome ``trace_event`` JSON object.

    Pass a finalized :class:`repro.obs.tracer.PacketTracer` to add a
    **packets** process: per traced packet, one complete (``X``) span per
    hop carrying the queueing/pause/serialization/propagation breakdown,
    linked hop-to-hop with flow arrows (``s``/``t`` events keyed by trace
    id) so a sampled packet's journey reads as one connected chain.
    """
    tb = _TraceBuilder()
    tb.meta(_FLOWS_PID, "flows")
    tb.meta(_PORTS_PID, "ports")
    tb.meta(_PFC_PID, "pfc")
    tb.meta(_BUFFERS_PID, "buffers")
    tb.meta(_FAULTS_PID, "faults")
    end_ts = recorder.max_ts

    # --- flow state spans: each transition closes the previous state -------
    open_state: Dict[int, str] = {}
    for t, fid, state in recorder.events["flow_state"]:
        tid = tb.tid_for(_FLOWS_PID, fid, f"flow {fid}")
        if fid in open_state:
            tb.span_end(t, _FLOWS_PID, tid)
            del open_state[fid]
        if state != "done":
            tb.span_begin(t, _FLOWS_PID, tid, state, "flow_state")
            open_state[fid] = state
    for fid in open_state:
        tb.span_end(end_ts, _FLOWS_PID, tb.tid_for(_FLOWS_PID, fid, f"flow {fid}"))

    # --- cwnd / delay counters ---------------------------------------------
    for t, fid, cwnd, delay in recorder.events["cwnd"]:
        tb.counter(t, _FLOWS_PID, f"cwnd flow{fid}", {"bytes": round(cwnd, 1)})
        tb.counter(t, _FLOWS_PID, f"delay flow{fid}", {"ns": delay})

    # --- probe + CC instants ------------------------------------------------
    for t, fid, kind in recorder.events["probe"]:
        tid = tb.tid_for(_FLOWS_PID, fid, f"flow {fid}")
        tb.instant(t, _FLOWS_PID, tid, f"probe_{kind}", "probe")
    for t, fid, kind in recorder.events["cc"]:
        tid = tb.tid_for(_FLOWS_PID, fid, f"flow {fid}")
        tb.instant(t, _FLOWS_PID, tid, kind, "cc")

    # --- per-queue occupancy counters ---------------------------------------
    for t, port, queue, qbytes, total in recorder.events["queue"]:
        tb.counter(t, _PORTS_PID, f"{port} q{queue}", {"bytes": qbytes})
        tb.counter(t, _PORTS_PID, f"{port} total", {"bytes": total})

    # --- link busy spans ----------------------------------------------------
    link_busy: Dict[str, bool] = {}
    for t, port, busy in recorder.events["link"]:
        tid = tb.tid_for(_PORTS_PID, port, port)
        was = link_busy.get(port, False)
        if busy and not was:
            tb.span_begin(t, _PORTS_PID, tid, "tx", "link")
        elif was and not busy:
            tb.span_end(t, _PORTS_PID, tid)
        link_busy[port] = busy
    for port, busy in link_busy.items():
        if busy:
            tb.span_end(end_ts, _PORTS_PID, tb.tid_for(_PORTS_PID, port, port))

    # --- ECN instants -------------------------------------------------------
    for t, port, queue in recorder.events["ecn"]:
        tid = tb.tid_for(_PORTS_PID, port, port)
        tb.instant(t, _PORTS_PID, tid, f"ecn q{queue}", "ecn")

    # --- PFC pause spans ----------------------------------------------------
    pfc_open: Dict[Tuple[str, int, int], bool] = {}
    for t, sw, in_idx, prio, paused, backlog in recorder.events["pfc"]:
        key = (sw, in_idx, prio)
        tid = tb.tid_for(_PFC_PID, key, f"{sw} in{in_idx} p{prio}")
        if paused and not pfc_open.get(key, False):
            tb.span_begin(t, _PFC_PID, tid, "PAUSE", "pfc", {"backlog_bytes": backlog})
            pfc_open[key] = True
        elif not paused and pfc_open.get(key, False):
            tb.span_end(t, _PFC_PID, tid)
            pfc_open[key] = False
    for key, is_open in pfc_open.items():
        if is_open:
            sw, in_idx, prio = key
            tb.span_end(end_ts, _PFC_PID, tb.tid_for(_PFC_PID, key, f"{sw} in{in_idx} p{prio}"))

    # --- buffer occupancy counters + drop instants --------------------------
    for t, sw, shared, headroom in recorder.events["buffer"]:
        tb.counter(t, _BUFFERS_PID, f"{sw} buffer", {"shared": shared, "headroom": headroom})
    for t, sw, size, prio, reason in recorder.events["drop"]:
        tid = tb.tid_for(_BUFFERS_PID, sw, sw)
        tb.instant(
            t,
            _BUFFERS_PID,
            tid,
            "drop",
            "drop",
            {"size": size, "priority": prio, "reason": reason},
        )

    # --- audit violations: instants on the buffers process ------------------
    for t, invariant, message in recorder.events["audit"]:
        tid = tb.tid_for(_BUFFERS_PID, "__audit__", "audit")
        tb.instant(t, _BUFFERS_PID, tid, invariant, "audit", {"message": message})

    # --- fault windows: inject..clear spans, reconverge instants ------------
    fault_open: Dict[Tuple[str, str], bool] = {}
    for t, kind, target, phase in recorder.events["fault"]:
        key = (kind, target)
        tid = tb.tid_for(_FAULTS_PID, key, f"{kind} {target}")
        if phase == "inject" and not fault_open.get(key, False):
            tb.span_begin(t, _FAULTS_PID, tid, kind, "fault", {"target": target})
            fault_open[key] = True
        elif phase == "clear" and fault_open.get(key, False):
            tb.span_end(t, _FAULTS_PID, tid)
            fault_open[key] = False
        else:
            tb.instant(t, _FAULTS_PID, tid, phase, "fault", {"target": target})
    for key, is_open in fault_open.items():
        if is_open:
            kind, target = key
            tb.span_end(end_ts, _FAULTS_PID, tb.tid_for(_FAULTS_PID, key, f"{kind} {target}"))

    # --- hybrid regime epochs: one span per mode stretch --------------------
    regime_events = recorder.events["regime"]
    if regime_events:
        tb.meta(_REGIME_PID, "regimes")
        tid = tb.tid_for(_REGIME_PID, "__regime__", "mode")
        regime_open = False
        for t, mode, reason, n_flows in regime_events:
            if regime_open:
                tb.span_end(t, _REGIME_PID, tid)
            tb.span_begin(
                t, _REGIME_PID, tid, mode, "regime", {"reason": reason, "n_flows": n_flows}
            )
            regime_open = True
        if regime_open:
            tb.span_end(end_ts, _REGIME_PID, tid)

    # --- causal packet traces: per-hop X spans + flow arrows ----------------
    if tracer is not None and getattr(tracer, "traces", None):
        tb.meta(_PACKETS_PID, "packets")
        for tr in tracer.traces:
            tid = tb.tid_for(_PACKETS_PID, tr.flow_id, f"flow {tr.flow_id} packets")
            arrow_name = f"pkt f{tr.flow_id} s{tr.seq}"
            for i, hop in enumerate(tr.hops):
                tb.add(
                    hop.t_enq,
                    {
                        "name": hop.port,
                        "cat": "packet_hop",
                        "ph": "X",
                        "pid": _PACKETS_PID,
                        "tid": tid,
                        "dur": hop.total_ns / 1000.0,
                        "args": {
                            "trace": tr.trace_id,
                            "seq": tr.seq,
                            "queue_ns": hop.queue_ns,
                            "pause_ns": hop.pause_ns,
                            "tx_ns": hop.tx_ns,
                            "prop_ns": hop.prop_ns,
                        },
                    },
                )
                tb.add(
                    hop.t_enq,
                    {
                        "name": arrow_name,
                        "cat": "packet_flow",
                        "ph": "s" if i == 0 else "t",
                        "id": tr.trace_id,
                        "pid": _PACKETS_PID,
                        "tid": tid,
                    },
                )

    return {
        "traceEvents": tb.render(),
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.telemetry", "clock_domain": "simulation-ns"},
    }


def write_perfetto(recorder: Recorder, path: str, tracer=None) -> int:
    """Write the Perfetto/Chrome trace JSON; returns the event count."""
    trace = to_perfetto(recorder, tracer=tracer)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return len(trace["traceEvents"])
