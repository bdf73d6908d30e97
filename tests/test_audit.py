"""The invariant auditor (repro.audit): detection power and zero feedback.

Three families of guarantees under test:

* **Detection** — every auditor fires on a deliberately broken invariant:
  corrupted buffer accounting, PFC causality breaks and pause-graph
  deadlocks, sender-window drift, clock regressions, and packet-ledger
  leaks / unclassified releases.
* **Regressions** — the three historical bugs fixed alongside the auditor
  stay fixed, and each one's *legacy* behaviour (reinstated via monkeypatch)
  is caught by the auditor rather than by a crash or silence:

  - ``_disarm_rto_if_idle`` disarming the RTO while retransmits sat queued,
  - drop double-counting when the shared pool and headroom both rejected,
  - ``SharedBuffer`` dereferencing ``self.sim.now`` with an enabled recorder
    but no ``bind_telemetry`` call.

* **Zero feedback** — clean scenarios (including randomized ones) audit clean
  in strict mode; that an audited run is byte-identical to an unaudited one
  is pinned for every sink set at once in ``tests/test_probe.py``.
"""

from __future__ import annotations

import heapq
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import probe
from repro.audit import AuditError, Auditor, audit_scope
from repro.cc.base import CongestionControl
from repro.experiments.registry import FunctionExperiment
from repro.runner import RunnerError, run_experiment
from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.packet import DATA, PACKET_POOL
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.probe import installed
from repro.telemetry import JsonlWriter, Recorder
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from tests.helpers import ChannelLog



# ----------------------------------------------------------------------
# scenario helpers
# ----------------------------------------------------------------------
def _star_scenario(sim, n=2, flow_bytes=40_000, cwnd=40_000, cfg=None, rto_ns=300_000):
    cfg = cfg or SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, n, rate_bps=10e9, link_delay_ns=1_000, switch_cfg=cfg)
    flows = [Flow(i + 1, senders[i], recv, flow_bytes) for i in range(n)]
    fsenders = [
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=cwnd), rto_ns=rto_ns)
        for f in flows
    ]
    return net, flows, fsenders, recv


def _violations(aud, invariant):
    return [v for v in aud.report.violations if v.invariant == invariant]


# ----------------------------------------------------------------------
# plumbing: defaults, scope, modes
# ----------------------------------------------------------------------
def test_audit_is_off_by_default():
    assert probe.active is probe.INERT
    assert probe.current(Auditor) is None
    assert Simulator(1).probe is probe.INERT
    assert SharedBuffer(1000).probe is probe.INERT


def test_audit_scope_installs_and_restores_default():
    with audit_scope("warn") as aud:
        assert probe.current(Auditor) is aud
        assert probe.active.sinks == (aud,)
        sim = Simulator(1)
        assert sim.probe is probe.active
        buf = SharedBuffer(1000)
        assert buf.probe is probe.active
    assert probe.active is probe.INERT
    assert probe.current(Auditor) is None


def test_audit_scope_restores_default_on_exception():
    with pytest.raises(KeyError):
        with audit_scope("strict"):
            raise KeyError("boom")
    assert probe.active is probe.INERT


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        Auditor(mode="loose")


def test_strict_mode_raises_at_violation_site():
    aud = Auditor(mode="strict")
    with pytest.raises(AuditError, match=r"\[audit:demo\] t=7: boom"):
        aud.violation(7, "demo", "boom")
    assert aud.report.violation_count == 1


def test_warn_mode_records_and_continues():
    aud = Auditor(mode="warn")
    aud.violation(1, "demo", "first")
    aud.violation(2, "demo", "second")
    assert not aud.report.ok
    assert [v.message for v in aud.report.violations] == ["first", "second"]


def test_report_caps_recorded_violations():
    aud = Auditor(mode="warn")
    for i in range(150):
        aud.violation(i, "demo", f"v{i}")
    assert aud.report.violation_count == 150
    assert len(aud.report.violations) == aud.report.MAX_RECORDED
    d = aud.report.to_dict()
    assert d["violation_count"] == 150 and not d["ok"]


def test_warn_violations_mirror_to_recorder_and_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    log, jsonl = ChannelLog(), JsonlWriter(str(path))
    rec = Recorder(log, jsonl)
    aud = Auditor(mode="warn", recorder=rec)
    aud.violation(7, "demo", "boom")
    assert log.events["audit"] == [(7, "demo", "boom")]
    assert rec.metrics.counter("audit.demo").value == 1
    rec.close()
    assert jsonl.count == 1
    row = json.loads(path.read_text().splitlines()[0])
    assert row == {"ch": "audit", "t": 7, "invariant": "demo", "message": "boom"}


# ----------------------------------------------------------------------
# (2) buffer byte reconciliation
# ----------------------------------------------------------------------
def test_buffer_auditor_detects_accounting_drift():
    aud = Auditor(mode="warn")
    with installed(aud):
        buf = SharedBuffer(16_000, headroom_bytes=4_000)
    assert buf.try_admit_shared(0, 1_000)
    assert aud.report.ok  # clean so far
    buf.shared_used += 7  # corrupt the books behind the auditor's back
    assert buf.try_admit_shared(0, 1_000)
    drift = _violations(aud, "buffer_bytes")
    assert drift and "drifted from shadow ledger" in drift[0].message


def test_buffer_auditor_detects_over_capacity():
    aud = Auditor(mode="warn")
    with installed(aud):
        buf = SharedBuffer(16_000, headroom_bytes=4_000)
    assert buf.try_admit_shared(0, 10_000)
    buf.shared_capacity = 5_000  # capacity shrank under live traffic
    buf.release(1_000, from_headroom=False)
    over = [v for v in _violations(aud, "buffer_bytes") if "over capacity" in v.message]
    assert over


def test_buffer_auditor_strict_raises_in_place():
    aud = Auditor(mode="strict")
    with installed(aud):
        buf = SharedBuffer(16_000)
    assert buf.try_admit_shared(0, 1_000)
    buf.shared_used = 999
    with pytest.raises(AuditError, match="buffer_bytes"):
        buf.try_admit_shared(0, 1_000)


# ----------------------------------------------------------------------
# (3) PFC causality + deadlock watchdog
# ----------------------------------------------------------------------
def test_pfc_pause_resume_pair_is_clean():
    aud = Auditor(mode="warn")
    aud.pfc(10, "sw", "host0.nic", 0, 1, True, 0)
    aud.pfc(20, "sw", "host0.nic", 0, 1, False, 0)
    assert aud.report.ok


def test_pfc_resume_without_pause_detected():
    aud = Auditor(mode="warn")
    aud.pfc(10, "sw", "host0.nic", 0, 1, False, 0)
    bad = _violations(aud, "pfc_causality")
    assert bad and "RESUME without a" in bad[0].message


def test_pfc_double_pause_detected():
    aud = Auditor(mode="warn")
    aud.pfc(10, "sw", "host0.nic", 0, 1, True, 0)
    aud.pfc(20, "sw", "host0.nic", 0, 1, True, 0)
    bad = _violations(aud, "pfc_causality")
    assert bad and "double pause" in bad[0].message


def test_pfc_negative_backlog_detected():
    aud = Auditor(mode="warn")
    aud.pfc_backlog(10, ("sw", 0, 1), -64)
    bad = _violations(aud, "pfc_causality")
    assert bad and "backlog negative" in bad[0].message


def test_pfc_deadlock_cycle_detected_past_horizon():
    aud = Auditor(mode="warn")
    # A pauses its ingress from B, B pauses its ingress from A: a cycle —
    # but young edges are not a deadlock yet
    aud.pfc(0, "A", "B.p0", 0, 0, True, 0)
    aud.pfc(0, "B", "A.p1", 1, 0, True, 0)
    assert aud.report.ok
    # any later PFC activity re-runs the watchdog; the cycle is now stale
    aud.pfc(Auditor.DEADLOCK_HORIZON_NS + 5_000, "C", "D.p0", 0, 0, True, 0)
    dead = _violations(aud, "pfc_deadlock")
    assert len(dead) == 1
    assert "pause cycle" in dead[0].message and "pause graph" in dead[0].message


def test_pfc_no_deadlock_without_cycle():
    aud = Auditor(mode="warn")
    aud.pfc(0, "A", "B.p0", 0, 0, True, 0)  # one-way wait, no cycle
    aud.pfc(Auditor.DEADLOCK_HORIZON_NS + 5_000, "C", "D.p0", 0, 0, True, 0)
    assert not _violations(aud, "pfc_deadlock")


# ----------------------------------------------------------------------
# (4) sender window accounting
# ----------------------------------------------------------------------
def test_sender_window_drift_detected():
    with audit_scope("warn") as aud:
        sim = Simulator(3)
        _net, _flows, senders, _recv = _star_scenario(sim, n=1)
        sim.run(until=5_000)  # mid-flight: several packets outstanding
        snd = senders[0]
        assert snd.inflight_bytes > 0
        snd.inflight_bytes += 999  # corrupt the window accounting
        aud.sender_event(sim.now, snd)
        snd.inflight_bytes -= 999  # restore so the rest of the run is clean
        sim.run(until=1_000_000_000)
    bad = _violations(aud, "sender_window")
    assert len(bad) == 1 and "sent-unacked payloads total" in bad[0].message


def test_sender_window_clean_run_has_checks():
    with audit_scope("strict") as aud:
        sim = Simulator(3)
        _net, flows, _senders, _recv = _star_scenario(sim)
        sim.run(until=1_000_000_000)
    assert all(f.done for f in flows)
    assert aud.report.ok
    assert aud.report.checks["sender_window"] > 0


# ----------------------------------------------------------------------
# (5) clock monotonicity
# ----------------------------------------------------------------------
def test_clock_regression_detected_on_fused_path():
    with audit_scope("warn") as aud:
        sim = Simulator(1)
        sim.at(1_000, lambda: None)
        sim.run()
        assert sim.now == 1_000
        # corrupt the heap: a fused (time, seq, fn, args) entry in the past
        sim._seq += 1
        heapq.heappush(sim._heap, (500, sim._seq, lambda: None, ()))
        sim.run()
    bad = _violations(aud, "clock")
    assert bad and "executed after the clock" in bad[0].message


def test_audited_run_loop_matches_plain_run():
    def build():
        order = []
        sim = Simulator(2)
        for i in range(50):
            sim.call_at(i * 10, order.append, i)
        doomed = sim.at(123, order.append, "cancelled")
        sim.at(125, order.append, "kept")
        doomed.cancel()
        return sim, order

    sim_a, order_a = build()
    n_a = sim_a.run(until=400)
    with audit_scope("strict") as aud:
        sim_b, order_b = build()
        n_b = sim_b.run(until=400)
    assert (n_b, sim_b.now, order_b) == (n_a, sim_a.now, order_a)
    assert aud.report.ok
    assert aud.report.checks["clock"] >= n_b


# ----------------------------------------------------------------------
# (1) packet conservation ledger
# ----------------------------------------------------------------------
def test_ledger_flags_unclassified_release():
    with audit_scope("warn") as aud:
        pkt = PACKET_POOL.acquire(DATA, 1040, src=0, dst=1, flow_id=1)
        PACKET_POOL.release(pkt)  # no delivery/drop classification
    bad = _violations(aud, "packet_ledger")
    assert bad and "missing its" in bad[0].message
    assert aud.report.ledger["released"] == 1
    assert aud.report.ledger["delivered"] == 0


def test_ledger_flags_leaked_packet():
    with audit_scope("warn") as aud:
        pkt = PACKET_POOL.acquire(DATA, 1040, src=0, dst=1, flow_id=1)
    bad = _violations(aud, "packet_ledger")
    assert bad and "leaked" in bad[0].message
    PACKET_POOL.release(pkt)  # clean up outside the scope


def test_strict_finalize_raises_on_leak():
    pkt = None
    with pytest.raises(AuditError, match="packet_ledger"):
        with audit_scope("strict"):
            pkt = PACKET_POOL.acquire(DATA, 1040, src=0, dst=1, flow_id=1)
    assert probe.active is probe.INERT  # scope restored before the raise
    PACKET_POOL.release(pkt)


def test_ledger_reconciles_clean_scenario_with_drops():
    cfg = SwitchConfig(n_queues=2, buffer_bytes=20_000, pfc=PfcConfig(enabled=False))
    with audit_scope("strict") as aud:
        sim = Simulator(7)
        net, flows, _s, _r = _star_scenario(
            sim, n=4, flow_bytes=60_000, cwnd=60_000, cfg=cfg, rto_ns=400_000
        )
        sim.run(until=1_000_000_000)
    assert all(f.done for f in flows)
    led = aud.report.ledger
    assert led["residual"] == 0
    assert led["delivered"] > 0
    assert led["dropped"].get("buffer_shared", 0) > 0  # overload really dropped
    assert net.total_drops() == led["dropped_total"]


# ----------------------------------------------------------------------
# satellite 1: SharedBuffer telemetry binding
# ----------------------------------------------------------------------
def test_bind_telemetry_rejects_clockless_sim():
    buf = SharedBuffer(16_000)
    with pytest.raises(ValueError, match="must provide a .now clock"):
        buf.bind_telemetry(None, "sw0")
    with pytest.raises(ValueError, match="must provide a .now clock"):
        buf.bind_telemetry(object(), "sw0")


def test_unbound_buffer_with_enabled_recorder_fails_fast():
    # the historical bug: a live recorder without bind_telemetry crashed with
    # AttributeError on self.sim.now at the first admitted packet; the
    # recorder (the one sink that needs the clock and the switch name) now
    # raises a diagnostic RuntimeError instead
    with installed(Recorder()):
        buf = SharedBuffer(16_000, headroom_bytes=4_000)
    with pytest.raises(RuntimeError, match="bind_telemetry"):
        buf.try_admit_shared(0, 1_000)
    with pytest.raises(RuntimeError, match="bind_telemetry"):
        buf.try_admit_headroom(1_000)
    with pytest.raises(RuntimeError, match="bind_telemetry"):
        buf.release(1_000, from_headroom=False)


def test_bound_buffer_emits_with_clock():
    log = ChannelLog()
    with installed(Recorder(log)):
        sim = Simulator(1)
        buf = SharedBuffer(16_000)
        buf.bind_telemetry(sim, "sw0")
        assert buf.try_admit_shared(0, 1_000)
    assert log.events["buffer"] == [(0, "sw0", 1_000, 0)]


def test_release_negative_raises_on_both_pools():
    buf = SharedBuffer(16_000, headroom_bytes=4_000)
    with pytest.raises(AssertionError, match="shared-pool accounting"):
        buf.release(1, from_headroom=False)
    with pytest.raises(AssertionError, match="headroom accounting"):
        buf.release(1, from_headroom=True)


# ----------------------------------------------------------------------
# satellite 2: RTO disarm with queued retransmits
# ----------------------------------------------------------------------
def _probe_after_blackhole(sender_cls_patch=None):
    """One flow loses everything to a link cut, relinquishes, then probes.

    Returns (auditor, sender).  With the legacy ``_disarm_rto_if_idle`` the
    probe ACK disarms the RTO while go-back-N retransmits sit queued,
    leaving the flow with no wake-up source at all.
    """
    with audit_scope("warn") as aud:
        sim = Simulator(5)
        net, _flows, senders, recv = _star_scenario(
            sim, n=1, flow_bytes=10_000, cwnd=20_000, rto_ns=100_000
        )
        snd = senders[0]
        sim.run(until=2_000)  # packets on the wire, none delivered yet
        sw = net.switches[0]
        net.set_link_state(sw, recv, up=False)
        snd.stop_sending()  # relinquished (as PrioPlus would)
        sim.run(until=500_000)  # RTO fires: go-back-N queues every lost seq
        assert snd._retx_queue and snd.inflight_bytes == 0  # scenario sanity
        assert snd._rto_ev is not None
        net.set_link_state(sw, recv, up=True)
        snd.send_probe_after(0)
        sim.run(until=1_000_000)
    return aud, snd


def test_legacy_rto_disarm_is_flagged_by_auditor(monkeypatch):
    def legacy_disarm(self):  # pre-fix: ignores the retransmit queue
        if self.inflight_bytes == 0 and not self.probe_outstanding and self._rto_ev is not None:
            self._rto_ev.cancel()
            self._rto_ev = None

    monkeypatch.setattr(FlowSender, "_disarm_rto_if_idle", legacy_disarm)
    aud, snd = _probe_after_blackhole()
    assert snd._rto_ev is None  # the flow is stranded: no timer, no probe
    bad = _violations(aud, "sender_window")
    assert bad and "retransmit queue non-empty with no timer" in bad[0].message


def test_fixed_rto_disarm_keeps_timer_with_queued_retx():
    aud, snd = _probe_after_blackhole()
    assert snd._rto_ev is not None  # the RTO stays armed for the queued retx
    assert not _violations(aud, "sender_window")
    assert aud.report.ok


def test_rto_still_disarmed_when_truly_idle():
    with audit_scope("strict") as aud:
        sim = Simulator(3)
        _net, flows, senders, _recv = _star_scenario(sim, n=1, flow_bytes=5_000)
        sim.run(until=1_000_000_000)
        snd = senders[0]
        assert flows[0].done and snd._rto_ev is None
    assert aud.report.ok


# ----------------------------------------------------------------------
# satellite 3: drop accounting (one packet, one drop, one reason)
# ----------------------------------------------------------------------
def _lossy_overload(aud_mode="strict"):
    cfg = SwitchConfig(n_queues=2, buffer_bytes=20_000, pfc=PfcConfig(enabled=False))
    with audit_scope(aud_mode) as aud:
        sim = Simulator(7)
        net, flows, _s, _r = _star_scenario(
            sim, n=4, flow_bytes=60_000, cwnd=60_000, cfg=cfg, rto_ns=400_000
        )
        sim.run(until=1_000_000_000)
    return aud, net, flows


def test_drop_stats_agree_with_ledger_reason_for_reason():
    aud, net, flows = _lossy_overload()
    assert all(f.done for f in flows)
    stats = net.switches[0].buffer.stats
    assert stats.dropped > 0
    assert stats.dropped == sum(stats.dropped_by_reason.values())
    assert stats.dropped_by_reason == aud.dropped  # same reasons, same counts
    assert aud.report.ok
    assert aud.report.checks["drop_accounting"] > 0


def test_legacy_double_drop_count_is_flagged(monkeypatch):
    # pre-fix: the shared-pool rejection *and* the final rejection each
    # counted a drop, double-counting every lost packet
    orig = SharedBuffer.try_admit_shared

    def legacy(self, queue_bytes, size):
        admitted = orig(self, queue_bytes, size)
        if not admitted:
            self.record_drop(size, -1, "buffer_shared")
        return admitted

    monkeypatch.setattr(SharedBuffer, "try_admit_shared", legacy)
    aud, net, _flows = _lossy_overload(aud_mode="warn")
    stats = net.switches[0].buffer.stats
    assert stats.dropped_by_reason["buffer_shared"] == 2 * aud.dropped["buffer_shared"]
    bad = _violations(aud, "drop_accounting")
    assert bad and "double/under-count" in bad[0].message


def test_drop_telemetry_carries_matching_reason():
    log = ChannelLog()
    rec = Recorder(log)
    with installed(rec):
        _aud, net, _flows = _lossy_overload()
    stats = net.switches[0].buffer.stats
    drops = log.events["drop"]
    assert len(drops) == stats.dropped
    by_reason = {}
    for _t, _sw, _size, _prio, reason in drops:
        by_reason[reason] = by_reason.get(reason, 0) + 1
    assert by_reason == dict(stats.dropped_by_reason)
    assert rec.metrics.counter("buffer.drops.buffer_shared").value == stats.dropped


# ----------------------------------------------------------------------
# runner / CLI integration
# ----------------------------------------------------------------------
def _tiny_point(seed=1, n=2):
    sim = Simulator(seed)
    _net, flows, _s, _r = _star_scenario(sim, n=n, flow_bytes=20_000, cwnd=20_000)
    sim.run(until=1_000_000_000)
    return {"fcts": [f.fct_ns() for f in flows], "now": sim.now}


TINY_EXP = FunctionExperiment(
    "tiny-audit",
    {
        "two": (_tiny_point, {"seed": 1, "n": 2}),
        "three": (_tiny_point, {"seed": 2, "n": 3}),
    },
)


def test_run_experiment_rejects_bad_audit_mode():
    with pytest.raises(RunnerError, match="audit must be"):
        run_experiment(TINY_EXP, audit="pedantic")


def test_run_experiment_aggregates_audit_reports():
    plain = run_experiment(TINY_EXP)
    audited = run_experiment(TINY_EXP, audit="strict")
    summary = audited.pop("audit")
    assert audited == plain  # the simulation results are untouched
    assert summary["mode"] == "strict" and summary["ok"]
    assert summary["violation_count"] == 0
    assert summary["points_audited"] == 2 and summary["points_cached"] == 0
    assert set(summary["points"]) == {"two", "three"}
    per_point = summary["points"]["two"]
    assert per_point["ok"] and per_point["ledger"]["residual"] == 0


def test_run_experiment_audit_skips_cached_points(tmp_path):
    report = {}
    first = run_experiment(TINY_EXP, cache=str(tmp_path), audit="warn", report=report)
    assert first["audit"]["points_audited"] == 2
    assert report["audit_violations"] == 0
    second = run_experiment(TINY_EXP, cache=str(tmp_path), audit="warn")
    assert second["audit"]["points_audited"] == 0
    assert second["audit"]["points_cached"] == 2
    assert second["audit"]["ok"]
    # cache entries themselves never carry audit payloads
    first.pop("audit")
    second.pop("audit")
    assert second == first


# ----------------------------------------------------------------------
# property-based: random operation sequences audit clean
# ----------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["shared", "headroom", "release"]), st.integers(1, 5_000)),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_buffer_ops_reconcile(ops):
    aud = Auditor(mode="strict")  # any inconsistency raises right here
    with installed(aud):
        buf = SharedBuffer(16_000, headroom_bytes=4_000)
    admitted = []
    for kind, size in ops:
        if kind == "shared":
            if buf.try_admit_shared(buf.shared_used // 2, size):
                admitted.append((size, False))
        elif kind == "headroom":
            if buf.try_admit_headroom(size):
                admitted.append((size, True))
        elif admitted:
            size, headroom = admitted.pop(0)
            buf.release(size, from_headroom=headroom)
    aud.finalize()
    assert aud.report.ok
    assert buf.shared_used == sum(s for s, h in admitted if not h)
    assert buf.headroom_used == sum(s for s, h in admitted if h)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_property_random_traffic_audits_clean(seed):
    rnd = random.Random(seed)
    pfc_on = rnd.random() < 0.5
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=rnd.choice([20_000, 64_000, 8 * 1024 * 1024]),
        headroom_per_port_per_prio=8_000 if pfc_on else 0,
        pfc=PfcConfig(enabled=pfc_on, xoff_bytes=4_000),
    )
    with audit_scope("strict") as aud:
        sim = Simulator(seed % 1_000)
        n = rnd.randint(1, 3)
        net, senders, recv = star(
            sim, n, rate_bps=10e9, link_delay_ns=rnd.choice([100, 1_000]), switch_cfg=cfg
        )
        flows = [
            Flow(i + 1, senders[i], recv, rnd.randint(5_000, 80_000)) for i in range(n)
        ]
        for f in flows:
            FlowSender(
                sim,
                net,
                f,
                CongestionControl(init_cwnd_bytes=rnd.randint(2_000, 80_000)),
                rto_ns=200_000,
            )
        cut_at = rnd.randint(1_000, 60_000)
        sim.run(until=cut_at)
        sw = net.switches[0]
        net.set_link_state(sw, recv, up=False)
        sim.run(until=cut_at + rnd.randint(10_000, 300_000))
        net.set_link_state(sw, recv, up=True)
        sim.run(until=1_000_000_000)
    rep = aud.report
    assert rep.ok and rep.finalized
    led = rep.ledger
    assert led["residual"] == led["resident_in_queues"] + led["resident_in_events"]
