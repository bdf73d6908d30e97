"""The buffered Perfetto exporter the streaming ``PerfettoWriter`` replaced, kept
as the reference it is checked against (``tests/test_telemetry.py``), as
``tests/routes_reference.py`` keeps the per-host route BFS.

``to_perfetto`` reads ``recorder.events[channel]`` (lists of channel tuples)
and ``recorder.max_ts``; ``tests.helpers.ChannelLog`` provides both.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_FLOWS_PID = 1
_PORTS_PID = 2
_PFC_PID = 3
_BUFFERS_PID = 4
_FAULTS_PID = 5
_PACKETS_PID = 6
_REGIME_PID = 7


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


def to_perfetto(recorder, tracer=None) -> dict:
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
        for t, mode, reason, n_flows, n_withdrawn in regime_events:
            if regime_open:
                tb.span_end(t, _REGIME_PID, tid)
            args = {"reason": reason, "n_flows": n_flows, "n_withdrawn": n_withdrawn}
            tb.span_begin(t, _REGIME_PID, tid, mode, "regime", args)
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
