"""PrioPlus channel inspector: state-machine transcript + inversion detector.

The inspector answers "*why* did this flow land where it did": it records
every per-flow PrioPlus state-machine transition (``probe_wait``,
``linear_start``, ``cautious_restart``, ``relinquished``, plus the sender's
``running``/``done`` lifecycle), every per-RTT CC decision
(``linear_start_step``, ``adaptive_increase``, probe retries), and bins acked
bytes into fixed windows so the report can reconstruct channel occupancy over
time and flag **virtual-priority inversions** — a window in which a
lower-channel flow moved more bytes than a higher-channel flow that was
actively sending on a shared bottleneck.

A :mod:`repro.probe` sink like the Recorder/Auditor/PacketTracer: it
subscribes to the same ``flow_state`` / ``cc_event`` / ``ack`` events the
recorder does (one collection path, two consumers) and never schedules events
or draws from the simulation RNG, so installing it leaves results
byte-identical (golden battery ``--obs inspect``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..sim.packet import PROBE

__all__ = ["ChannelInspector"]

#: states in which a flow is actively pushing data into its channel
ACTIVE_STATES = frozenset(("running", "linear_start", "cautious_restart"))


class _FlowRecord:
    """Everything the inspector knows about one registered flow."""

    __slots__ = ("flow_id", "vpriority", "d_target_ns", "d_limit_ns", "tier",
                 "path_ports", "transitions", "cc_counts", "probes")

    def __init__(self, flow_id: int, vpriority: int, d_target_ns: int,
                 d_limit_ns: int, tier: str, path_ports: Tuple[str, ...]):
        self.flow_id = flow_id
        self.vpriority = vpriority
        self.d_target_ns = d_target_ns
        self.d_limit_ns = d_limit_ns
        self.tier = tier
        self.path_ports = path_ports
        self.transitions: List[Tuple[int, str]] = []
        self.cc_counts: Dict[str, int] = {}
        self.probes: Dict[str, int] = {}

    def state_at(self, t: int) -> Optional[str]:
        """Flow state in effect at time ``t`` (last transition at or before)."""
        state = None
        for when, s in self.transitions:
            if when > t:
                break
            state = s
        return state


class ChannelInspector:
    """Records PrioPlus channel behaviour for a structured post-run report.

    Acked bytes are binned into fixed windows of ``WINDOW_NS``; occupancy
    and the inversion detector both operate at this granularity.
    """

    WINDOW_NS = 100_000

    def __init__(self):
        self.flows: Dict[int, _FlowRecord] = {}
        #: (flow_id, window_index) -> acked bytes in that window
        self._bins: Dict[Tuple[int, int], int] = {}
        self.max_ts = 0

    # ------------------------------------------------------------------
    # probe event handlers (PrioPlusCC / FlowSender sites)
    # ------------------------------------------------------------------
    def register(self, kind: str, cc) -> None:
        """A :class:`PrioPlusCC` attached to its sender: record its channel."""
        if kind != "prioplus":
            return
        sender = cc.sender
        flow = sender.flow
        self.register_flow(
            flow.flow_id, cc.vpriority, cc.d_target, cc.d_limit, cc.tier,
            [p.name for p in sender.net.path_ports(flow.src, flow.dst)],
        )

    def register_flow(self, flow_id: int, vpriority: int, d_target_ns: int,
                      d_limit_ns: int, tier: str, path_ports) -> None:
        self.flows[flow_id] = _FlowRecord(
            flow_id, vpriority, d_target_ns, d_limit_ns, tier, tuple(path_ports)
        )

    def _flow(self, flow_id: int) -> _FlowRecord:
        rec = self.flows.get(flow_id)
        if rec is None:
            # flows outside PrioPlus (or registered late) still get a record
            rec = self.flows[flow_id] = _FlowRecord(flow_id, 0, 0, 0, "", ())
        return rec

    def flow_state(self, t: int, flow_id: int, state: str, sender) -> None:
        if t > self.max_ts:
            self.max_ts = t
        self._flow(flow_id).transitions.append((t, state))

    def cc_event(self, t: int, flow_id: int, kind: str) -> None:
        if t > self.max_ts:
            self.max_ts = t
        counts = self._flow(flow_id).cc_counts
        counts[kind] = counts.get(kind, 0) + 1

    def probe_rejected(self, t: int, flow_id: int) -> None:
        self.cc_event(t, flow_id, "probe_rejected")

    def _probe(self, t: int, flow_id: int, kind: str) -> None:
        """``kind`` is ``"send"`` or ``"ack"`` (mirrors the telemetry channel)."""
        if t > self.max_ts:
            self.max_ts = t
        probes = self._flow(flow_id).probes
        probes[kind] = probes.get(kind, 0) + 1

    def pkt_sent(self, t: int, pkt) -> None:
        if pkt.kind == PROBE:
            self._probe(t, pkt.flow_id, "send")

    def ack(self, t: int, sender, acked_bytes: int, delay_ns: int, is_probe: bool) -> None:
        if is_probe:
            self._probe(t, sender.flow.flow_id, "ack")
        else:
            self.acked(t, sender.flow.flow_id, acked_bytes)

    def acked(self, t: int, flow_id: int, acked_bytes: int) -> None:
        """Bin ``acked_bytes`` of ``flow_id`` into the window holding ``t``."""
        if not acked_bytes:
            return
        if t > self.max_ts:
            self.max_ts = t
        key = (flow_id, t // self.WINDOW_NS)
        self._bins[key] = self._bins.get(key, 0) + acked_bytes

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def occupancy(self) -> Dict[int, List[Tuple[int, int]]]:
        """Per virtual priority: ``[(t, active_flow_count), ...]`` steps.

        A flow occupies its channel while in an :data:`ACTIVE_STATES` state;
        ``probe_wait``/``relinquished``/``done`` vacate it.
        """
        deltas: Dict[int, Dict[int, int]] = {}
        for rec in self.flows.values():
            active = False
            for t, state in rec.transitions:
                now_active = state in ACTIVE_STATES
                if now_active == active:
                    continue
                active = now_active
                vp = deltas.setdefault(rec.vpriority, {})
                vp[t] = vp.get(t, 0) + (1 if now_active else -1)
        series: Dict[int, List[Tuple[int, int]]] = {}
        for vprio in sorted(deltas):
            count = 0
            steps = []
            for t in sorted(deltas[vprio]):
                count += deltas[vprio][t]
                steps.append((t, count))
            series[vprio] = steps
        return series

    def inversions(self) -> List[dict]:
        """Windows where a low-channel flow outpaced an active high-channel
        flow on a shared bottleneck (sorted by window, then flow ids)."""
        windows = sorted({w for (_fid, w) in self._bins})
        flows = sorted(self.flows.values(), key=lambda r: r.flow_id)
        found: List[dict] = []
        for w in windows:
            t0 = w * self.WINDOW_NS
            t1 = t0 + self.WINDOW_NS
            for hi in flows:
                if not hi.path_ports:
                    continue
                # the high flow must want bandwidth for the whole window
                if hi.state_at(t0) not in ACTIVE_STATES:
                    continue
                if hi.state_at(t1) not in ACTIVE_STATES:
                    continue
                hi_bytes = self._bins.get((hi.flow_id, w), 0)
                for lo in flows:
                    if lo.vpriority >= hi.vpriority or not lo.path_ports:
                        continue
                    if not set(lo.path_ports) & set(hi.path_ports):
                        continue
                    lo_bytes = self._bins.get((lo.flow_id, w), 0)
                    if lo_bytes > hi_bytes:
                        found.append({
                            "window_t_ns": t0,
                            "low_flow": lo.flow_id,
                            "low_vpriority": lo.vpriority,
                            "low_bytes": lo_bytes,
                            "high_flow": hi.flow_id,
                            "high_vpriority": hi.vpriority,
                            "high_bytes": hi_bytes,
                            "high_state": hi.state_at(t0),
                        })
        return found

    def report(self) -> dict:
        """Structured, JSON-safe report of everything observed."""
        flows = {}
        for fid in sorted(self.flows):
            rec = self.flows[fid]
            flows[str(fid)] = {
                "vpriority": rec.vpriority,
                "tier": rec.tier,
                "d_target_ns": rec.d_target_ns,
                "d_limit_ns": rec.d_limit_ns,
                "path_ports": list(rec.path_ports),
                "transitions": [[t, s] for t, s in rec.transitions],
                "cc_events": dict(sorted(rec.cc_counts.items())),
                "probes": dict(sorted(rec.probes.items())),
                "relinquishes": sum(1 for _, s in rec.transitions if s == "relinquished"),
            }
        occupancy = {
            str(vprio): [[t, n] for t, n in steps]
            for vprio, steps in self.occupancy().items()
        }
        return {
            "window_ns": self.WINDOW_NS,
            "flows": flows,
            "occupancy": occupancy,
            "inversions": self.inversions(),
            "transition_count": sum(len(r.transitions) for r in self.flows.values()),
            "max_ts": self.max_ts,
        }

    def write_report_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh, indent=1, sort_keys=True)
