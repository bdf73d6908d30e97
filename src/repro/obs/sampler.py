"""Time-series sampler: fixed-stride snapshots into bounded ring buffers.

A :class:`TimeSeriesSampler` takes periodic snapshots of simulation state —
per-port queue depth/backlog, per-buffer occupancy, per-flow rate and delay
estimates — at a fixed virtual-time stride, without scheduling a single
simulator event.  As a :mod:`repro.probe` sink it is handed every dispatch
before the clock advances (``pre_dispatch``) and snapshots exactly when
virtual time crosses a stride boundary.  Because the snapshot happens
*between* events and the stride arithmetic is pure, sampling leaves results
byte-identical (golden battery ``--obs sample``).

Rows accumulate into fixed-capacity ring buffers (oldest rows are dropped
and counted, so long runs can't exhaust memory) and export as CSV or JSONL.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["TimeSeriesSampler"]


class _Ring:
    """Append-only bounded ring; keeps the most recent ``capacity`` rows."""

    __slots__ = ("capacity", "rows", "dropped")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: Deque[dict] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, row: dict) -> None:
        if len(self.rows) == self.capacity:
            self.dropped += 1  # the deque evicts the oldest row itself
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)


class TimeSeriesSampler:
    """Periodic state snapshots at a fixed virtual-time stride.

    Parameters
    ----------
    stride_ns:
        Virtual time between snapshots.  Each row is stamped at the stride
        boundary it represents (``t - t % stride_ns``), so rows from repeated
        runs line up exactly.
    """

    #: per-ring row budget (ports, buffers and flows each get their own
    #: ring); the oldest rows are dropped (and counted) beyond it
    CAPACITY = 4096

    def __init__(self, stride_ns: int = 100_000):
        if stride_ns < 1:
            raise ValueError(f"stride_ns must be >= 1, got {stride_ns}")
        self.stride_ns = stride_ns
        self.ports = _Ring(self.CAPACITY)
        self.buffers = _Ring(self.CAPACITY)
        self.flows = _Ring(self.CAPACITY)
        self.regimes = _Ring(self.CAPACITY)
        self.samples_taken = 0
        #: completed senders released after their final "done" row (keeps
        #: per-flow state bounded by *concurrent* flows on long traces)
        self.flows_pruned = 0
        self._ports: List[object] = []
        self._buffers: List[object] = []
        self._senders: List[object] = []
        #: next stride boundary to snapshot at (re-anchored per registered sim)
        self._due = self.next_due(0)
        #: last acked_payload per flow, for windowed goodput rates
        self._last_acked: Dict[int, int] = {}
        self._last_t: Optional[int] = None
        self.finalized = False

    # ------------------------------------------------------------------
    # registration (probe event, emitted from constructors)
    # ------------------------------------------------------------------
    def register(self, kind: str, obj) -> None:
        if kind == "port":
            self._ports.append(obj)
        elif kind == "buffer":
            self._buffers.append(obj)
        elif kind == "sender":
            self._senders.append(obj)
        elif kind == "sim":
            self._due = self.next_due(obj.now)

    # ------------------------------------------------------------------
    # sampling (driven by the engine's dispatch hook)
    # ------------------------------------------------------------------
    def pre_dispatch(self, sim, time: int) -> None:
        """Snapshot before the first event at or past the due boundary."""
        if time >= self._due:
            self._due = self.sample(time)

    def run_end(self, sim, n: int) -> None:
        # the horizon advance may cross boundaries with no events in between
        if sim.now >= self._due:
            self._due = self.sample(sim.now)

    def next_due(self, now: int) -> int:
        """First stride boundary strictly after ``now``."""
        return ((now // self.stride_ns) + 1) * self.stride_ns

    def sample(self, time: int) -> int:
        """Snapshot state as of stride boundary ``<= time``; returns the next
        due boundary.  Multiple crossed boundaries coalesce into one row set
        (queue state was constant across them — no events fired)."""
        boundary = time - time % self.stride_ns
        self.samples_taken += 1
        for port in self._ports:
            self.ports.append({
                "t": boundary,
                "port": port.name,
                "queued_pkts": sum(len(q) for q in port.queues.values()),
                "backlog_bytes": port.total_bytes,
                "busy": int(port.busy),
                "paused_mask": sum(1 << p for p, v in enumerate(port.paused) if v),
            })
        for buf in self._buffers:
            self.buffers.append({
                "t": boundary,
                "buffer": buf.name,
                "shared_used": buf.shared_used,
                "headroom_used": buf.headroom_used,
            })
        dt = None if self._last_t is None else boundary - self._last_t
        live: List[object] = []
        for sender in self._senders:
            fid = sender.flow.flow_id
            acked = sender.acked_payload
            prev = self._last_acked.get(fid, 0)
            rate_bps = 0.0
            if dt:
                rate_bps = (acked - prev) * 8e9 / dt
            cc = sender.cc
            if sender.completed:
                state = "done"
            elif sender.stopped:
                state = "stopped"
            else:
                state = "running"
            self.flows.append({
                "t": boundary,
                "flow": fid,
                "acked_bytes": acked,
                "rate_bps": rate_bps,
                "state": state,
                "cwnd": getattr(cc, "cwnd", 0.0),
                "delay_ns": sender.last_rtt,
            })
            if state == "done":
                # the row just emitted is this flow's terminal row: release
                # the sender so tracked state scales with concurrent flows,
                # not the total flow count of a multi-second trace
                self._last_acked.pop(fid, None)
                self.flows_pruned += 1
            else:
                self._last_acked[fid] = acked
                live.append(sender)
        self._senders = live
        self._last_t = boundary
        return boundary + self.stride_ns

    def regime(self, t: int, mode: str, reason: str, n_flows: int, n_withdrawn: int) -> None:
        """One hybrid-core regime switch (:mod:`repro.fluid.hybrid`).

        Event-driven, not stride-driven: switches are rare and their exact
        boundaries matter, so each is stored at its true timestamp."""
        self.regimes.append({"t": t, "mode": mode, "reason": reason, "withdrawn": n_withdrawn})

    # ------------------------------------------------------------------
    # reporting / export
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Idempotent; releases component references so rings own the data."""
        if self.finalized:
            return
        self.finalized = True
        self._ports = []
        self._buffers = []
        self._senders = []

    def snapshot(self) -> dict:
        """JSON-safe summary (embeddable in experiment result dicts)."""
        return {
            "buffer_rows": len(self.buffers),
            "dropped_rows": (
                self.ports.dropped + self.buffers.dropped
                + self.flows.dropped + self.regimes.dropped
            ),
            "flow_rows": len(self.flows),
            "flows_pruned": self.flows_pruned,
            "port_rows": len(self.ports),
            "regime_rows": len(self.regimes),
            "samples_taken": self.samples_taken,
            "stride_ns": self.stride_ns,
        }

    def rows(self) -> List[dict]:
        """All rows tagged with a ``kind`` column, ordered by time then kind."""
        out = []
        for kind, ring in (("buffer", self.buffers), ("flow", self.flows),
                           ("port", self.ports), ("regime", self.regimes)):
            for row in ring.rows:
                tagged = {"kind": kind}
                tagged.update(row)
                out.append(tagged)
        out.sort(key=lambda r: (r["t"], r["kind"],
                                str(r.get("port") or r.get("buffer")
                                    or r.get("flow") or r.get("mode"))))
        return out

    def write(self, path: str) -> int:
        """Export all rows; format by extension (``.csv`` else JSONL).
        Returns the number of rows written."""
        rows = self.rows()
        if path.endswith(".csv"):
            return self._write_csv(path, rows)
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
            fh.flush()
        return len(rows)

    def _write_csv(self, path: str, rows: List[dict]) -> int:
        cols: List[str] = ["kind", "t"]
        seen = set(cols)
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    cols.append(key)
        with open(path, "w") as fh:
            fh.write(",".join(cols))
            fh.write("\n")
            for row in rows:
                fh.write(",".join("" if row.get(c) is None else str(row.get(c, ""))
                                  for c in cols))
                fh.write("\n")
            fh.flush()
        return len(rows)
