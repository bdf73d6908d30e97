"""Recorder writers: a JSONL event stream and a Chrome/Perfetto trace.

A :class:`~repro.telemetry.recorder.Recorder` hands each channel tuple to its
writers the moment it records it, so both files are written in one pass and
neither grows in memory with the run.  A writer is any object with
``write(channel, tuple)``, ``end_run(t)`` and ``close()``.

:class:`PerfettoWriter` renders a simulation as a trace that opens directly in
`ui.perfetto.dev <https://ui.perfetto.dev>`_ (or ``chrome://tracing``):

* **flows** process — one thread per flow with B/E spans for every
  flow/PrioPlus state, counter tracks for cwnd and measured delay, and
  instant events for probes and per-RTT CC decisions;
* **ports** process — one thread per egress port with transmit busy spans,
  ECN-mark instants, and per-queue byte-occupancy counters;
* **pfc** process — one thread per (switch, ingress, priority) with a PAUSE
  span for every pause/resume pair;
* **buffers** process — shared/headroom occupancy counters and drop instants
  per switch;
* **faults** / **regimes** / **packets** — fault windows, hybrid-core
  regime stretches, and a finalized packet tracer's hops.

Timestamps are emitted in microseconds (the format's unit) from the engine's
integer-nanosecond clock, in recording order (the format does not require
them sorted).  B/E pairs always match: spans still open when a run ends are
closed at that run's last timestamp.  Each simulator built under the recorder
is a run whose clock restarts at zero, so the tracks of runs after the first
are their own threads and counters, labelled ``(run N)``.
"""

from __future__ import annotations

import json
from typing import Dict

from .recorder import CHANNEL_FIELDS

__all__ = ["JsonlWriter", "PerfettoWriter"]

_FLOWS_PID = 1
_PORTS_PID = 2
_PFC_PID = 3
_BUFFERS_PID = 4
_FAULTS_PID = 5
_PACKETS_PID = 6
_REGIME_PID = 7

_dumps = json.dumps


class JsonlWriter:
    """Writes each channel tuple as one JSON object per line, in recording
    order: ``ch`` (the channel name) plus the channel's named fields
    (:data:`~repro.telemetry.recorder.CHANNEL_FIELDS`).  ``count`` is the
    number of lines written."""

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self._fh = open(path, "w")

    def write(self, ch: str, ev: tuple) -> None:
        obj = {"ch": ch}
        obj.update(zip(CHANNEL_FIELDS[ch], ev))
        self._fh.write(_dumps(obj) + "\n")
        self.count += 1

    def end_run(self, t: int) -> None:
        """Runs are not marked in the event stream."""

    def close(self) -> None:
        self._fh.close()


class PerfettoWriter:
    """Streams channel tuples to a Chrome ``trace_event`` JSON file.

    Pass a :class:`repro.obs.tracer.PacketTracer` to add a **packets**
    process when the writer closes (finalize the tracer first): per traced
    packet, one complete (``X``) span per hop carrying the
    queueing/pause/serialization/propagation breakdown, linked hop-to-hop
    with flow arrows (``s``/``t`` events keyed by trace id).  ``count`` is
    the number of trace events written.
    """

    def __init__(self, path: str, tracer=None):
        self.path = path
        self.tracer = tracer
        self._fh = open(path, "w")
        processes = ((_FLOWS_PID, "flows"), (_PORTS_PID, "ports"), (_PFC_PID, "pfc"),
                     (_BUFFERS_PID, "buffers"), (_FAULTS_PID, "faults"))
        self._fh.write('{"traceEvents": [\n' + ",\n".join(
            _dumps(_process_name(pid, name)) for pid, name in processes))
        self.count = len(processes)
        self._regimes_named = False
        self._n_tids: Dict[int, int] = {}  # pid -> threads named so far
        self._run = 1
        self._start_run()
        self._on = {
            "flow_state": self._flow_state,
            "cwnd": self._cwnd,
            "probe": self._probe,
            "cc": self._cc,
            "ecn": self._ecn,
            "pfc": self._pfc,
            "queue": self._queue,
            "link": self._link,
            "buffer": self._buffer,
            "drop": self._drop,
            "fault": self._fault,
            "audit": self._audit,
            "regime": self._regime,
        }

    def _start_run(self) -> None:
        self._suffix = f" (run {self._run})" if self._run > 1 else ""
        self._run_start = self.count
        # this run's tracks (key -> tid) and its open spans (key -> tid)
        self._flow_tids: Dict[object, int] = {}
        self._port_tids: Dict[object, int] = {}
        self._pfc_tids: Dict[object, int] = {}
        self._buffer_tids: Dict[object, int] = {}
        self._fault_tids: Dict[object, int] = {}
        self._regime_tids: Dict[str, int] = {}  # its span is open once named
        self._open_state: Dict[int, int] = {}
        self._link_busy: Dict[str, int] = {}
        self._pfc_open: Dict[tuple, int] = {}
        self._fault_open: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # the writer protocol
    # ------------------------------------------------------------------
    def write(self, ch: str, ev: tuple) -> None:
        self._on[ch](*ev)

    def end_run(self, t: int) -> None:
        """Close the run's open spans at ``t``; later events are a new run."""
        if self.count == self._run_start:
            return  # nothing recorded since the last run ended
        for pid, open_spans in ((_FLOWS_PID, self._open_state), (_PORTS_PID, self._link_busy),
                                (_PFC_PID, self._pfc_open), (_FAULTS_PID, self._fault_open),
                                (_REGIME_PID, self._regime_tids)):
            for tid in open_spans.values():
                self._end(t, pid, tid)
        self._run += 1
        self._start_run()

    def close(self) -> None:
        """Add the tracer's packets and close the JSON document."""
        tracer = self.tracer
        if tracer is not None and getattr(tracer, "traces", None):
            self._put(_process_name(_PACKETS_PID, "packets"))
            self._suffix = ""  # the tracer does not tell runs apart
            tids: Dict[int, int] = {}
            for tr in tracer.traces:
                tid = tids.get(tr.flow_id) or self._track(
                    tids, _PACKETS_PID, tr.flow_id, f"flow {tr.flow_id} packets")
                arrow_name = f"pkt f{tr.flow_id} s{tr.seq}"
                for i, hop in enumerate(tr.hops):
                    self._add(hop.t_enq, {
                        "name": hop.port, "cat": "packet_hop", "ph": "X",
                        "pid": _PACKETS_PID, "tid": tid, "dur": hop.total_ns / 1000.0,
                        "args": {
                            "trace": tr.trace_id, "seq": tr.seq, "queue_ns": hop.queue_ns,
                            "pause_ns": hop.pause_ns, "tx_ns": hop.tx_ns,
                            "prop_ns": hop.prop_ns,
                        },
                    })
                    self._add(hop.t_enq, {
                        "name": arrow_name, "cat": "packet_flow", "ph": "s" if i == 0 else "t",
                        "id": tr.trace_id, "pid": _PACKETS_PID, "tid": tid,
                    })
        self._fh.write('\n], "displayTimeUnit": "ns", "otherData": {"generator": '
                       '"repro.telemetry", "clock_domain": "simulation-ns"}}\n')
        self._fh.close()

    # ------------------------------------------------------------------
    # trace events
    # ------------------------------------------------------------------
    def _put(self, obj: dict) -> None:
        self._fh.write(",\n" + _dumps(obj))
        self.count += 1

    def _add(self, t: int, obj: dict) -> None:
        obj["ts"] = t / 1000.0  # trace_event timestamps are microseconds
        self._put(obj)

    def _track(self, tids: dict, pid: int, key, label: str) -> int:
        """A new thread of ``pid`` for ``key`` in ``tids``: tracks are named at
        first sight, and a later run's carry its number."""
        tid = tids[key] = self._n_tids[pid] = self._n_tids.get(pid, 0) + 1
        self._put({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                   "args": {"name": label + self._suffix}})
        return tid

    def _begin(self, t: int, pid: int, tid: int, name: str, cat: str, args=None) -> None:
        obj = {"name": name, "cat": cat, "ph": "B", "pid": pid, "tid": tid}
        if args:
            obj["args"] = args
        self._add(t, obj)

    def _end(self, t: int, pid: int, tid: int) -> None:
        self._add(t, {"ph": "E", "pid": pid, "tid": tid})

    def _instant(self, t: int, pid: int, tid: int, name: str, cat: str, args=None) -> None:
        obj = {"name": name, "cat": cat, "ph": "i", "s": "t", "pid": pid, "tid": tid}
        if args:
            obj["args"] = args
        self._add(t, obj)

    def _counter(self, t: int, pid: int, name: str, args: dict) -> None:
        self._add(t, {"name": name + self._suffix, "cat": "counter", "ph": "C", "pid": pid,
                      "args": args})

    def _flow_tid(self, fid: int) -> int:
        return self._flow_tids.get(fid) or self._track(
            self._flow_tids, _FLOWS_PID, fid, f"flow {fid}")

    def _port_tid(self, port: str) -> int:
        return self._port_tids.get(port) or self._track(self._port_tids, _PORTS_PID, port, port)

    # ------------------------------------------------------------------
    # one handler per channel, arguments as the channel tuple
    # ------------------------------------------------------------------
    def _flow_state(self, t, fid, state) -> None:
        # each transition closes the previous state's span
        tid = self._flow_tid(fid)
        if self._open_state.pop(fid, 0):
            self._end(t, _FLOWS_PID, tid)
        if state != "done":
            self._begin(t, _FLOWS_PID, tid, state, "flow_state")
            self._open_state[fid] = tid

    def _cwnd(self, t, fid, cwnd, delay) -> None:
        self._counter(t, _FLOWS_PID, f"cwnd flow{fid}", {"bytes": round(cwnd, 1)})
        self._counter(t, _FLOWS_PID, f"delay flow{fid}", {"ns": delay})

    def _probe(self, t, fid, kind) -> None:
        self._instant(t, _FLOWS_PID, self._flow_tid(fid), f"probe_{kind}", "probe")

    def _cc(self, t, fid, kind) -> None:
        self._instant(t, _FLOWS_PID, self._flow_tid(fid), kind, "cc")

    def _queue(self, t, port, queue, qbytes, total) -> None:
        self._counter(t, _PORTS_PID, f"{port} q{queue}", {"bytes": qbytes})
        self._counter(t, _PORTS_PID, f"{port} total", {"bytes": total})

    def _link(self, t, port, busy) -> None:
        tid = self._port_tid(port)
        if busy:
            if port not in self._link_busy:
                self._begin(t, _PORTS_PID, tid, "tx", "link")
                self._link_busy[port] = tid
        elif self._link_busy.pop(port, 0):
            self._end(t, _PORTS_PID, tid)

    def _ecn(self, t, port, queue) -> None:
        self._instant(t, _PORTS_PID, self._port_tid(port), f"ecn q{queue}", "ecn")

    def _pfc(self, t, sw, in_idx, prio, paused, backlog) -> None:
        key = (sw, in_idx, prio)
        tid = self._pfc_tids.get(key) or self._track(
            self._pfc_tids, _PFC_PID, key, f"{sw} in{in_idx} p{prio}")
        if paused:
            if key not in self._pfc_open:
                self._begin(t, _PFC_PID, tid, "PAUSE", "pfc", {"backlog_bytes": backlog})
                self._pfc_open[key] = tid
        elif self._pfc_open.pop(key, 0):
            self._end(t, _PFC_PID, tid)

    def _buffer(self, t, sw, shared, headroom) -> None:
        self._counter(t, _BUFFERS_PID, f"{sw} buffer", {"shared": shared, "headroom": headroom})

    def _drop(self, t, sw, size, prio, reason) -> None:
        tid = self._buffer_tids.get(sw) or self._track(self._buffer_tids, _BUFFERS_PID, sw, sw)
        self._instant(t, _BUFFERS_PID, tid, "drop", "drop",
                      {"size": size, "priority": prio, "reason": reason})

    def _audit(self, t, invariant, message) -> None:
        # violations are instants on the buffers process
        tid = self._buffer_tids.get("__audit__") or self._track(
            self._buffer_tids, _BUFFERS_PID, "__audit__", "audit")
        self._instant(t, _BUFFERS_PID, tid, invariant, "audit", {"message": message})

    def _fault(self, t, kind, target, phase) -> None:
        # inject..clear is a span; every other phase an instant
        key = (kind, target)
        tid = self._fault_tids.get(key) or self._track(
            self._fault_tids, _FAULTS_PID, key, f"{kind} {target}")
        if phase == "inject" and key not in self._fault_open:
            self._begin(t, _FAULTS_PID, tid, kind, "fault", {"target": target})
            self._fault_open[key] = tid
        elif phase == "clear" and key in self._fault_open:
            self._end(t, _FAULTS_PID, self._fault_open.pop(key))
        else:
            self._instant(t, _FAULTS_PID, tid, phase, "fault", {"target": target})

    def _regime(self, t, mode, reason, n_flows, n_withdrawn) -> None:
        # one span per mode stretch: from the run's first switch on, one is open
        if not self._regimes_named:
            self._put(_process_name(_REGIME_PID, "regimes"))
            self._regimes_named = True
        tid = self._regime_tids.get("mode")
        if tid:
            self._end(t, _REGIME_PID, tid)
        else:
            tid = self._track(self._regime_tids, _REGIME_PID, "mode", "mode")
        args = {"reason": reason, "n_flows": n_flows, "n_withdrawn": n_withdrawn}
        self._begin(t, _REGIME_PID, tid, mode, "regime", args)


def _process_name(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": name}}
