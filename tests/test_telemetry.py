"""Telemetry layer: recorder parity, Perfetto export schema, metrics math,
plus the engine observability fixes that ride along with it."""

import json
from collections import Counter as Multiset
from collections import defaultdict

import pytest

from repro.audit import Auditor
from repro.cc.base import CongestionControl
from repro.experiments.launch import run_until_flows_done
from repro.experiments.quickstart import run_quickstart
from repro.experiments.registry import FunctionExperiment
from repro.fluid import HybridDriver
from repro.obs.tracer import PacketTracer
from repro.probe import INERT, installed
from repro.runner import run_experiment
from repro.sim.engine import Simulator
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.telemetry import (
    CHANNEL_FIELDS,
    CHANNELS,
    Counter,
    Gauge,
    Histogram,
    JsonlWriter,
    MetricsRegistry,
    PerfettoWriter,
    Recorder,
    current_recorder,
)
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from tests.helpers import ChannelLog, live_events
from tests.hybrid_twins import star_world
from tests.perfetto_reference import to_perfetto
from tests.test_faults import _MINI_PLAN, _mini_fault_run


def _pfc_heavy_scenario(seed=3):
    """Small incast that triggers PFC pauses, ECN-free, finishes quickly."""
    sim = Simulator(seed)
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=64_000,
        headroom_per_port_per_prio=8_000,
        pfc=PfcConfig(enabled=True, xoff_bytes=4_000, dynamic=False),
    )
    net, senders, recv = star(sim, 2, rate_bps=100e9, link_delay_ns=100, switch_cfg=cfg)
    net.path_ports(senders[0], recv)[-1].ns_per_byte = 8.0  # ~1 Gbps bottleneck
    f = Flow(1, senders[0], recv, 100_000)
    FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=100_000))
    sim.run(until=2_000_000_000)
    assert f.done
    return sim, net, f


# ----------------------------------------------------------------------
# recorder on/off parity (result byte-identity: tests/test_probe.py)
# ----------------------------------------------------------------------
def test_recorder_does_not_consume_rng_or_schedule_events():
    def run(with_recorder):
        with installed(*([Recorder()] if with_recorder else [])):
            sim, _net, f = _pfc_heavy_scenario()
        return f.fct_ns(), sim.rng.random(), sim.events_processed

    assert run(False) == run(True)


def test_default_recorder_adopted_by_new_simulators():
    rec = Recorder()
    with installed(rec):
        sim = Simulator()
        assert sim.probe.sinks == (rec,)
        assert current_recorder() is rec
    assert current_recorder() is None
    assert Simulator().probe is INERT


def test_channels_are_the_recorders_event_lists():
    assert set(CHANNELS) >= {"flow_state", "queue", "pfc", "link", "buffer"}
    assert tuple(CHANNEL_FIELDS) == tuple(Recorder().counts) == CHANNELS
    assert all(fields[0] == "t" for fields in CHANNEL_FIELDS.values())


class _PauseCountingAuditor(Auditor):
    pauses = 0

    def pfc(self, t, switch, upstream, in_idx, prio, paused, backlog_bytes):
        self.pauses += paused
        super().pfc(t, switch, upstream, in_idx, prio, paused, backlog_bytes)


def test_one_pfc_event_reaches_recorder_and_auditor(tmp_path):
    path = tmp_path / "trace.json"
    log = ChannelLog()
    rec, aud = Recorder(log, PerfettoWriter(str(path))), _PauseCountingAuditor("strict")
    with installed(rec, aud):
        _sim, net, _f = _pfc_heavy_scenario()
    rec.close()
    assert aud.finalize().ok
    pauses = rec.metrics.counters["pfc.pauses"].value
    resumes = rec.metrics.counters["pfc.resumes"].value
    assert pauses >= 1 and resumes >= 1
    assert pauses == net.total_pfc_pauses() == aud.pauses
    assert aud.report.checks["pfc_causality"] == pauses + resumes == len(log.events["pfc"])
    events = json.loads(path.read_text())["traceEvents"]
    (pid,) = [e["pid"] for e in events if e["ph"] == "M" and e["args"]["name"] == "pfc"]
    phases = [e["ph"] for e in events if e["pid"] == pid]
    assert phases.count("B") == phases.count("E") == pauses


def test_pfc_logger_can_install_after_traffic_started():
    # A probe is fixed when the simulator is built, so what "late" can still
    # mean is ingress state machines that already exist when the window of
    # interest opens: the pfc event fires from the switch's send closure at
    # signal time, so nothing is captured per state machine and none is missed.
    log = ChannelLog()
    with installed(Recorder(log)):
        sim = Simulator(3)
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=64_000,
        headroom_per_port_per_prio=8_000,
        pfc=PfcConfig(enabled=True, xoff_bytes=4_000, dynamic=False),
    )
    net, senders, recv = star(sim, 2, rate_bps=100e9, link_delay_ns=100, switch_cfg=cfg)
    net.path_ports(senders[0], recv)[-1].ns_per_byte = 8.0
    f = Flow(1, senders[0], recv, 100_000)
    FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=100_000))
    sim.run(until=10_000)  # traffic (and PFC state machines) already exist
    sw = net.switches[0]
    existing = {state.key for state in sw._pfc.values()}
    assert existing
    sim.run(until=2_000_000_000)
    assert f.done
    late = [e for e in log.events["pfc"] if e[0] > 10_000 and (sw.name, e[2], e[3]) in existing]
    assert sum(1 for e in late if e[4]) >= 1
    assert sum(1 for e in late if not e[4]) >= 1
    assert sum(1 for e in log.events["pfc"] if e[4]) == net.total_pfc_pauses()


def test_metrics_only_mode_keeps_no_events():
    rec = Recorder()
    with installed(rec):
        _pfc_heavy_scenario()
    # no writer, and nothing on the recorder holds channel tuples
    assert rec.writers == ()
    assert [k for k, v in vars(rec).items() if isinstance(v, (list, tuple)) and v] == []
    # yet it counts what a writer would have been handed
    log = ChannelLog()
    written = Recorder(log)
    with installed(written):
        _pfc_heavy_scenario()
    assert rec.event_counts() == written.event_counts() == {
        ch: len(evs) for ch, evs in sorted(log.events.items()) if evs
    }
    assert rec.metrics.counters["pfc.pauses"].value >= 1


# ----------------------------------------------------------------------
# Perfetto export schema
# ----------------------------------------------------------------------
def _record_quickstart(*writers):
    rec = Recorder(*writers)
    with installed(rec):
        run_quickstart(low_bytes=300_000, high_bytes=100_000)
    rec.close()
    return rec


def test_perfetto_trace_is_valid_and_ordered(tmp_path):
    path = tmp_path / "trace.json"
    writer = PerfettoWriter(str(path))
    _record_quickstart(writer)
    n = writer.count
    trace = json.loads(path.read_text())  # must round-trip as valid JSON
    events = trace["traceEvents"]
    assert len(events) == n > 0
    assert trace["displayTimeUnit"] == "ns"
    # timestamps are monotonic across the non-metadata stream
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts)
    assert all(t >= 0 for t in ts)

    # B/E strictly matched per (pid, tid): never unbalanced, zero at the end
    depth = defaultdict(int)
    for e in events:
        key = (e["pid"], e.get("tid", 0))
        if e["ph"] == "B":
            depth[key] += 1
        elif e["ph"] == "E":
            depth[key] -= 1
            assert depth[key] >= 0, f"E without B on track {key}"
    assert all(v == 0 for v in depth.values())

    # the acceptance-criteria content: flow-state spans + queue counters
    span_names = {e["name"] for e in events if e["ph"] == "B"}
    assert {"running", "probe_wait", "linear_start"} <= span_names
    counter_names = {e["name"] for e in events if e["ph"] == "C"}
    assert any("q0" in name for name in counter_names)
    assert any(name.startswith("cwnd") for name in counter_names)


def test_perfetto_trace_contains_pfc_pause_spans(tmp_path):
    path = tmp_path / "trace.json"
    rec = Recorder(PerfettoWriter(str(path)))
    with installed(rec):
        _pfc_heavy_scenario()
    rec.close()
    trace = json.loads(path.read_text())
    pauses = [e for e in trace["traceEvents"] if e.get("ph") == "B" and e["name"] == "PAUSE"]
    assert pauses, "PFC pause spans missing from trace"
    assert all(e["cat"] == "pfc" for e in pauses)


def test_events_jsonl_schema(tmp_path):
    path = tmp_path / "events.jsonl"
    writer = JsonlWriter(str(path))
    rec = _record_quickstart(writer)
    n = writer.count
    lines = path.read_text().splitlines()
    assert len(lines) == n == sum(rec.event_counts().values())
    last_t = 0
    seen = set()
    for line in lines:
        obj = json.loads(line)
        assert obj["ch"] in CHANNELS
        assert obj["t"] >= last_t
        last_t = obj["t"]
        seen.add(obj["ch"])
    assert {"flow_state", "cwnd", "queue", "link"} <= seen


def _thread_names(events):
    return {(e["pid"], e["tid"]): e["args"]["name"]
            for e in events if e["ph"] == "M" and e["name"] == "thread_name"}


def _by_thread_name(events):
    """The trace events as a multiset, each ``tid`` replaced by its thread's
    name: the writer numbers tracks in the order it first sees them, the
    reference in its per-channel pass order."""
    names = _thread_names(events)
    out = Multiset()
    for e in events:
        if "tid" in e:
            e = dict(e, tid=names.get((e["pid"], e["tid"]), e["tid"]))
        out[json.dumps(e, sort_keys=True)] += 1
    return out


def _fault_world():
    one_point = FunctionExperiment("fault-world", {"s3": (_mini_fault_run, {"seed": 3})})
    run_experiment(one_point, faults=_MINI_PLAN)


def _hybrid_world():
    sim, net, flows = star_world(3, 300_000, 600_000)
    assert run_until_flows_done(sim, flows, 2_000_000_000, driver=HybridDriver(sim, net))


@pytest.mark.parametrize("world, channels, trace_packets", [
    (lambda: run_quickstart(low_bytes=300_000, high_bytes=100_000),
     ("flow_state", "cwnd", "queue", "link", "cc"), True),
    (_pfc_heavy_scenario, ("pfc", "buffer"), False),
    (_fault_world, ("fault",), False),
    (_hybrid_world, ("regime",), False),
], ids=["quickstart", "pfc_heavy", "fault", "hybrid"])
def test_streamed_trace_matches_the_buffered_reference(tmp_path, world, channels, trace_packets):
    path = tmp_path / "trace.json"
    tracer = PacketTracer(sample_every=8) if trace_packets else None
    log = ChannelLog()
    rec = Recorder(log, PerfettoWriter(str(path), tracer=tracer))
    with installed(rec, *([tracer] if tracer else [])):
        world()
    if tracer:
        tracer.finalize()
    rec.close()
    assert all(rec.counts[ch] for ch in channels)
    new = json.loads(path.read_text())
    old = to_perfetto(log, tracer=tracer)
    assert {k: v for k, v in new.items() if k != "traceEvents"} == {
        k: v for k, v in old.items() if k != "traceEvents"}
    assert _by_thread_name(new["traceEvents"]) == _by_thread_name(old["traceEvents"])


def test_runs_under_one_recorder_keep_their_own_tracks(tmp_path):
    # every simulator restarts at t = 0: laid on the same tracks, two runs
    # nest their spans and run time backwards
    path = tmp_path / "trace.json"
    rec = Recorder(PerfettoWriter(str(path)))
    with installed(rec):
        _pfc_heavy_scenario()
        _pfc_heavy_scenario()
    rec.close()
    events = json.loads(path.read_text())["traceEvents"]
    assert {"flow 1", "flow 1 (run 2)"} <= set(_thread_names(events).values())
    pids = {e["args"]["name"]: e["pid"] for e in events if e.get("name") == "process_name"}
    spanned = {pids["flows"], pids["ports"], pids["pfc"]}
    depth, last_ts = defaultdict(int), {}
    for e in events:
        if e["ph"] == "M":
            continue
        track = (e["pid"], e["tid"]) if "tid" in e else (e["pid"], e["name"])  # counters
        assert e["ts"] >= last_ts.get(track, 0), f"time runs backwards on {track}"
        last_ts[track] = e["ts"]
        if e["pid"] in spanned and e["ph"] in "BE":
            depth[track] += 1 if e["ph"] == "B" else -1
            assert 0 <= depth[track] <= 1, f"nested or unmatched span on {track}"
    assert depth and all(v == 0 for v in depth.values())


# ----------------------------------------------------------------------
# metrics arithmetic
# ----------------------------------------------------------------------
def test_counter_and_registry_snapshot():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    assert reg.counter("a") is reg.counters["a"]
    snap = reg.snapshot()
    assert snap["counters"]["a"] == 5
    assert isinstance(Counter(), Counter)


def test_gauge_time_weighted_mean():
    g = Gauge()
    g.set(0, 10)
    g.set(10, 20)  # 10 held for [0,10)
    g.set(30, 0)  # 20 held for [10,30)
    # integral so far: 10*10 + 20*20 = 500 over 30ns
    assert g.time_weighted_mean() == pytest.approx(500 / 30)
    # extending the horizon holds the last value (0) → integral unchanged
    assert g.time_weighted_mean(until_t=50) == pytest.approx(500 / 50)
    assert g.min == 0 and g.max == 20 and g.samples == 3


def test_histogram_mean_and_percentiles():
    h = Histogram()
    for v in (1, 2, 4, 8):
        h.observe(v)
    assert h.count == 4
    assert h.mean() == pytest.approx((1 + 2 + 4 + 8) / 4)
    assert h.min == 1 and h.max == 8
    assert 0 < h.percentile(50) <= 4
    assert h.percentile(100) >= 4
    with pytest.raises(ValueError):
        h.percentile(101)


def test_empty_metrics_are_safe():
    assert Gauge().time_weighted_mean() == 0.0
    h = Histogram()
    assert h.mean() == 0.0
    assert h.percentile(50) == 0.0
    assert MetricsRegistry().snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# engine: cancellation + heap compaction
# ----------------------------------------------------------------------
def test_pending_counter_tracks_cancellations():
    sim = Simulator()
    handles = [sim.at(i + 1, lambda: None) for i in range(10)]
    assert live_events(sim) == 10
    for h in handles[:4]:
        h.cancel()
        h.cancel()  # idempotent: must not double-decrement
    assert live_events(sim) == 6
    sim.run()
    assert live_events(sim) == 0
    assert sim.events_processed == 6


def test_cancel_after_fire_is_noop_for_counters():
    sim = Simulator()
    h = sim.at(5, lambda: None)
    sim.run()
    assert live_events(sim) == 0
    h.cancel()  # already fired: nothing to undo
    assert live_events(sim) == 0
    assert sim._cancelled == 0


def test_heap_compaction_bounds_cancelled_entries():
    sim = Simulator()
    handles = [sim.at(1_000_000 + i, lambda: None) for i in range(500)]
    assert len(sim._heap) == 500
    for h in handles[:400]:
        h.cancel()
    # compaction triggered once cancelled entries exceeded half the heap
    assert len(sim._heap) < 500
    assert live_events(sim) == 100
    fired = []
    sim.at(2_000_000, fired.append, "end")
    sim.run()
    assert fired == ["end"]
    assert len(sim._heap) == 0


def test_compaction_preserves_event_order():
    sim = Simulator()
    fired = []
    keep = [sim.at(t, fired.append, t) for t in range(100, 300, 2)]  # noqa: F841
    drop = [sim.at(t, fired.append, t) for t in range(101, 301, 2)]
    for h in drop:
        h.cancel()
    sim.run()
    assert fired == list(range(100, 300, 2))
