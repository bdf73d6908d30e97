"""Introspection layer (repro.obs): tracer exactness, inspector transcript
fidelity, sampler determinism and profiler attribution.  The on/off
byte-identity contract all four sinks share with the Recorder/Auditor is
pinned once, over sink sets, in ``tests/test_probe.py``."""

import json

import pytest

from repro.cc import Swift, SwiftParams
from repro.cc.base import CongestionControl
from repro.core import ChannelConfig, PrioPlusCC, StartTier
from repro import probe
from repro.obs import (
    ChannelInspector,
    PacketTracer,
    TimeSeriesSampler,
    profile_scope,
)
from repro.probe import installed
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.telemetry import JsonlWriter, PerfettoWriter, Recorder
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from tests.helpers import ChannelLog


def _quickstart_scenario(sim):
    """The quickstart two-flow PrioPlus scenario, with handles kept."""
    net, senders, receiver = star(sim, n_senders=2, rate_bps=10e9, link_delay_ns=1500)
    channels = ChannelConfig(n_priorities=8)
    low = Flow(1, senders[0], receiver, size_bytes=600_000, vpriority=1, start_ns=0)
    high = Flow(2, senders[1], receiver, size_bytes=200_000, vpriority=6,
                start_ns=300_000)
    cc_low = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), channels,
                        vpriority=1, tier=StartTier.LOW)
    cc_high = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), channels,
                         vpriority=6, tier=StartTier.HIGH)
    FlowSender(sim, net, low, cc_low)
    FlowSender(sim, net, high, cc_high)
    return net, (low, high), (cc_low, cc_high)


# ----------------------------------------------------------------------
# defaults: everything off unless installed
# ----------------------------------------------------------------------
def test_null_defaults_adopted():
    sim = Simulator(1)
    assert sim.probe is probe.INERT
    assert not probe.INERT.on and probe.INERT.sinks == ()
    assert probe.INERT.dispatch_hook(sim) is None
    assert probe.current(PacketTracer) is None


def test_scopes_install_and_restore():
    trc, insp = PacketTracer(sample_every=4), ChannelInspector()
    with installed(trc):
        assert probe.current(PacketTracer) is trc
        sim = Simulator(1)
        assert sim.probe.sinks == (trc,)
        with installed(insp):  # installs compose on the one probe
            assert probe.active.sinks == (trc, insp)
        assert probe.active.sinks == (trc,)
    assert probe.current(PacketTracer) is None
    assert probe.active is probe.INERT


# ----------------------------------------------------------------------
# tracer: per-hop spans sum exactly to end-to-end latency
# ----------------------------------------------------------------------
def test_span_components_sum_to_e2e():
    trc = PacketTracer(sample_every=1)
    with installed(trc):
        sim = Simulator(1)
        net, flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    trc.finalize()
    assert all(f.done for f in flows)
    delivered = [tr for tr in trc.traces if tr.disposition == "delivered"]
    assert len(delivered) > 100
    for tr in delivered:
        assert tr.hops, f"trace {tr.trace_id} delivered with no hops"
        assert sum(h.total_ns for h in tr.hops) == tr.e2e_ns
        assert tr.hops[0].t_enq == tr.birth_ns
        for hop in tr.hops:
            assert hop.queue_ns >= 0
            assert hop.pause_ns >= 0
            assert hop.tx_ns > 0
            assert hop.pause_ns <= hop.wait_ns


def test_sampling_is_deterministic_and_respects_rate():
    def run(sample_every):
        trc = PacketTracer(sample_every=sample_every)
        with installed(trc):
            sim = Simulator(1)
            _net, flows, _ = _quickstart_scenario(sim)
            sim.run(until=50_000_000)
        trc.finalize()
        return trc

    a = run(4)
    b = run(4)
    assert [tr.to_dict() for tr in a.traces] == [tr.to_dict() for tr in b.traces]
    everything = run(1)
    assert 0 < a.started < everything.started
    # sample_every=1 traces every sender-originated packet
    assert everything.started == everything.delivered + everything.dropped \
        + everything.corrupted + everything.snapshot()["in_flight"]


def test_pause_time_attributed_to_paused_hop():
    trc = PacketTracer(sample_every=1)
    with installed(trc):
        sim = Simulator(13)
        cfg = SwitchConfig(n_queues=4, buffer_bytes=8 * 1024 * 1024)
        net, senders, recv = star(sim, 1, rate_bps=10e9, link_delay_ns=500,
                                  switch_cfg=cfg)
        f = Flow(1, senders[0], recv, 100_000, priority=0)
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=100_000),
                   rto_ns=10**12)
        bottleneck = net.path_ports(senders[0], recv)[-1]
        sim.at(20_000, bottleneck.set_paused, 0, True)
        sim.at(120_000, bottleneck.set_paused, 0, False)
        sim.run(until=1_000_000_000)
    trc.finalize()
    assert f.done
    paused_hops = [h for tr in trc.traces for h in tr.hops
                   if h.port == bottleneck.name and h.pause_ns > 0]
    assert paused_hops, "no hop charged any PFC pause time"
    # a packet that sat through the whole window is charged (close to) all of it
    assert max(h.pause_ns for h in paused_hops) > 90_000
    for h in paused_hops:
        assert h.pause_ns <= h.wait_ns
        assert h.queue_ns == h.wait_ns - h.pause_ns


def test_spans_jsonl_roundtrip(tmp_path):
    trc = PacketTracer(sample_every=8)
    with installed(trc):
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    path = tmp_path / "spans.jsonl"
    n = trc.write_spans_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == n
    summaries = [r for r in rows if r.get("kind") == "summary"]
    hops = [r for r in rows if "hop" in r]
    assert len(summaries) == len(trc.traces)
    assert len(hops) == sum(len(tr.hops) for tr in trc.traces)
    for s in summaries:
        if s["disposition"] == "delivered":
            mine = [r for r in hops if r["trace"] == s["trace"]]
            assert sum(r["queue_ns"] + r["pause_ns"] + r["tx_ns"] + r["prop_ns"]
                       for r in mine) == s["e2e_ns"]


def test_perfetto_gains_packet_process(tmp_path):
    plain_path, traced_path = tmp_path / "plain.json", tmp_path / "traced.json"
    trc = PacketTracer(sample_every=8)
    rec = Recorder(PerfettoWriter(str(plain_path)), PerfettoWriter(str(traced_path), tracer=trc))
    with installed(rec, trc):
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    trc.finalize()  # before the writers close: the trace draws its hops
    rec.close()
    plain = json.loads(plain_path.read_text())
    traced = json.loads(traced_path.read_text())
    packets = [e for e in traced["traceEvents"] if e.get("pid") == 6]
    assert not [e for e in plain["traceEvents"] if e.get("pid") == 6]
    x_spans = [e for e in packets if e.get("ph") == "X"]
    arrows = [e for e in packets if e.get("cat") == "packet_flow"]
    assert len(x_spans) == sum(len(tr.hops) for tr in trc.traces)
    assert len(arrows) == len(x_spans)
    assert {e["ph"] for e in arrows} == {"s", "t"}
    for e in x_spans:
        args = e["args"]
        assert set(args) == {"trace", "seq", "queue_ns", "pause_ns", "tx_ns",
                             "prop_ns"}


# ----------------------------------------------------------------------
# inspector: transcript fidelity
# ----------------------------------------------------------------------
def test_inspector_matches_telemetry_flow_state():
    log, insp = ChannelLog(), ChannelInspector()
    with installed(Recorder(log), insp):
        sim = Simulator(1)
        _net, flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    assert all(f.done for f in flows)
    # the inspector's per-flow transcripts, flattened, are exactly the
    # flow_state channel
    flat = [(t, fid, s) for fid, r in insp.flows.items() for t, s in r.transitions]
    assert sorted(flat) == sorted(log.events["flow_state"])


def test_inspector_quickstart_transcript():
    insp = ChannelInspector()
    with installed(insp):
        sim = Simulator(1)
        _net, flows, ccs = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    assert all(f.done for f in flows)
    report = insp.report()
    low, high = report["flows"]["1"], report["flows"]["2"]
    assert low["vpriority"] == 1 and low["tier"] == StartTier.LOW
    assert high["vpriority"] == 6 and high["tier"] == StartTier.HIGH

    low_states = [s for _, s in low["transitions"]]
    high_states = [s for _, s in high["transitions"]]
    # lifecycle brackets every transcript
    assert low_states[0] == "running" and low_states[-1] == "done"
    assert high_states[0] == "running" and high_states[-1] == "done"
    # a LOW-tier flow must probe before entering its channel; a HIGH-tier
    # flow starts linearly right away, and never probes or relinquishes
    assert low_states[1] == "probe_wait"
    assert "linear_start" in low_states
    assert high_states[1] == "linear_start"
    assert "probe_wait" not in high_states and "relinquished" not in high_states

    cc_low, cc_high = ccs
    assert low["relinquishes"] == cc_low.relinquish_count
    assert low["cc_events"].get("linear_start_step", 0) == cc_low.linear_start_steps
    assert low["cc_events"].get("adaptive_increase", 0) == cc_low.adaptive_increases
    assert high["cc_events"].get("linear_start_step", 0) == cc_high.linear_start_steps
    assert high["cc_events"].get("adaptive_increase", 0) == cc_high.adaptive_increases
    assert low["probes"]["send"] == flows[0].probes_sent
    # every relinquish vacates the channel and re-entry needs a fresh probe
    if cc_low.relinquish_count:
        assert low["probes"]["send"] > 1
    assert low["path_ports"] and set(low["path_ports"]) & set(high["path_ports"])
    assert report["transition_count"] == len(low_states) + len(high_states)


def test_inversion_detector_positive_and_negative():
    w = ChannelInspector.WINDOW_NS
    insp = ChannelInspector()
    insp.register_flow(1, vpriority=1, d_target_ns=0, d_limit_ns=0, tier="low",
                       path_ports=["sw.p0"])
    insp.register_flow(2, vpriority=6, d_target_ns=0, d_limit_ns=0, tier="high",
                       path_ports=["sw.p0"])
    insp.flow_state(0, 1, "running", None)
    insp.flow_state(0, 2, "running", None)
    # window [w, 2w): the low-channel flow moves more bytes
    insp.acked(w + w // 2, 1, 9_000)
    insp.acked(w + w // 2, 2, 1_000)
    # high flow relinquishes after that window closes; the low flow keeps
    # moving bytes, but outpacing an inactive flow is not an inversion
    insp.flow_state(2 * w + 1, 2, "relinquished", None)
    insp.acked(3 * w + w // 2, 1, 9_000)
    found = insp.inversions()
    assert len(found) == 1
    inv = found[0]
    assert inv["window_t_ns"] == w
    assert inv["low_flow"] == 1 and inv["high_flow"] == 2
    assert inv["low_bytes"] == 9_000 and inv["high_bytes"] == 1_000

    # no shared bottleneck => never an inversion
    other = ChannelInspector()
    other.register_flow(1, 1, 0, 0, "low", ["sw.p0"])
    other.register_flow(2, 6, 0, 0, "high", ["sw.p1"])
    other.flow_state(0, 1, "running", None)
    other.flow_state(0, 2, "running", None)
    other.acked(w + w // 2, 1, 9_000)
    other.acked(w + w // 2, 2, 1_000)
    assert other.inversions() == []


def test_occupancy_steps():
    insp = ChannelInspector()
    insp.register_flow(1, 3, 0, 0, "low", ["p"])
    insp.register_flow(2, 3, 0, 0, "low", ["p"])
    insp.flow_state(0, 1, "running", None)
    insp.flow_state(10, 1, "probe_wait", None)    # vacates
    insp.flow_state(20, 1, "linear_start", None)  # re-enters
    insp.flow_state(30, 2, "running", None)
    insp.flow_state(50, 1, "done", None)
    occ = insp.occupancy()
    assert occ == {3: [(0, 1), (10, 0), (20, 1), (30, 2), (50, 1)]}


def test_report_json_roundtrip(tmp_path):
    insp = ChannelInspector()
    with installed(insp):
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    path = tmp_path / "channel.json"
    insp.write_report_json(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(insp.report()))


# ----------------------------------------------------------------------
# sampler: stride-aligned, deterministic, bounded
# ----------------------------------------------------------------------
def test_sampler_rows_are_stride_aligned_and_deterministic():
    def run():
        smp = TimeSeriesSampler(stride_ns=50_000)
        with installed(smp):
            sim = Simulator(1)
            _net, _flows, _ = _quickstart_scenario(sim)
            sim.run(until=50_000_000)
        return smp

    a, b = run(), run()
    rows = a.rows()
    assert rows and rows == b.rows()
    assert all(r["t"] % 50_000 == 0 for r in rows)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"port", "buffer", "flow"}
    flow_rows = [r for r in rows if r["kind"] == "flow" and r["flow"] == 1]
    assert any(r["rate_bps"] > 0 for r in flow_rows)
    assert flow_rows[-1]["state"] == "done"
    port_rows = [r for r in rows if r["kind"] == "port"]
    assert any(r["backlog_bytes"] > 0 for r in port_rows)


def test_sampler_ring_bounds_memory():
    smp = TimeSeriesSampler(stride_ns=1_000)
    with installed(smp):
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    assert len(smp.ports.rows) == TimeSeriesSampler.CAPACITY
    assert smp.ports.dropped > 0
    assert smp.snapshot()["dropped_rows"] > 0
    # the ring keeps the most recent rows
    ts = [r["t"] for r in smp.ports.rows]
    assert ts == sorted(ts)


def test_sampler_csv_and_jsonl_export(tmp_path):
    smp = TimeSeriesSampler(stride_ns=100_000)
    with installed(smp):
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    csv_path, jsonl_path = tmp_path / "s.csv", tmp_path / "s.jsonl"
    n_csv = smp.write(str(csv_path))
    n_jsonl = smp.write(str(jsonl_path))
    assert n_csv == n_jsonl == len(smp.rows())
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["kind", "t"]
    assert len(lines) == n_csv + 1
    parsed = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert parsed == [json.loads(json.dumps(r, sort_keys=True)) for r in smp.rows()]


# ----------------------------------------------------------------------
# profiler: every event attributed
# ----------------------------------------------------------------------
def test_profiler_accounts_every_event():
    with profile_scope() as prof:
        sim = Simulator(1)
        _net, flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    assert all(f.done for f in flows)
    assert prof.events == sim.events_processed
    snap = prof.snapshot()
    assert sum(c["count"] for c in snap["callbacks"].values()) == prof.events
    assert snap["wall_s"] >= 0
    assert list(snap["callbacks"]) == sorted(snap["callbacks"])
    # the hot callbacks of any packet run must show up by name
    assert any("receive" in name for name in snap["callbacks"])


# ----------------------------------------------------------------------
# streaming JSONL writer
# ----------------------------------------------------------------------
def test_jsonl_event_stream(tmp_path):
    path = tmp_path / "events.jsonl"
    stream = JsonlWriter(str(path))
    rec = Recorder(stream)
    with installed(rec):
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    rec.close()
    counts = rec.event_counts()
    assert counts and list(counts) == sorted(counts)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == stream.count == sum(counts.values())
    assert {r["ch"] for r in rows} >= {"flow_state", "cwnd", "queue"}
    # timestamps appear in recording order per channel
    for ch in ("flow_state", "cwnd"):
        ts = [r["t"] for r in rows if r["ch"] == ch]
        assert ts == sorted(ts)


def test_report_dashboard(tmp_path):
    from repro.obs.report import build_dashboard, report_main

    trc, insp = PacketTracer(sample_every=4), ChannelInspector()
    smp = TimeSeriesSampler(stride_ns=100_000)
    with installed(trc, insp, smp), profile_scope() as prof:
        sim = Simulator(1)
        _net, _flows, _ = _quickstart_scenario(sim)
        sim.run(until=50_000_000)
    spans_path = tmp_path / "spans.jsonl"
    channel_path = tmp_path / "channel.json"
    samples_path = tmp_path / "samples.csv"
    result_path = tmp_path / "result.json"
    trc.write_spans_jsonl(str(spans_path))
    insp.write_report_json(str(channel_path))
    smp.write(str(samples_path))
    result_path.write_text(json.dumps({"profile": prof.snapshot()}))

    out = tmp_path / "dash.html"
    rc = report_main([
        "--result", str(result_path), "--samples", str(samples_path),
        "--spans", str(spans_path), "--channel", str(channel_path),
        "--out", str(out),
    ])
    assert rc == 0
    page = out.read_text()
    for section in ("Per-flow goodput", "Port backlog", "Per-hop latency",
                    "PrioPlus state timeline", "Engine profile", "<svg",
                    "data-tip", "legend"):
        assert section in page
    # marks never carry identity alone: every chart ships its table view
    assert page.count("Data table") >= 3
    # partial inputs still render (and the empty call refuses politely)
    partial = build_dashboard(channel=json.loads(channel_path.read_text()))
    assert "PrioPlus state timeline" in partial and "goodput" not in partial
    with pytest.raises(SystemExit):
        report_main(["--out", str(out)])


def test_event_counts_sorted():
    rec = Recorder()
    rec.flow_state(1, 1, "running")
    rec.queue_depth(2, "p", 0, 10, 10)
    rec.cwnd_update(3, 1, 1000.0, 5000)
    assert list(rec.event_counts()) == ["cwnd", "flow_state", "queue"]
