"""Tests for trace file I/O and convergence metrics."""

import pytest

from repro.analysis import jain_index, stability, time_to_share, utilization
from repro.workloads import FlowSpec, TraceFormatError, load_trace, save_trace


# ----------------------------------------------------------------------
# trace I/O
# ----------------------------------------------------------------------
def test_round_trip(tmp_path):
    specs = [
        FlowSpec(0, 3, 15_000, 0, tag=("prio", 2)),
        FlowSpec(1, 2, 2_000_000, 125_000, tag=("prio", 0)),
    ]
    path = tmp_path / "trace.txt"
    save_trace(specs, path)
    loaded = load_trace(path)
    assert len(loaded) == 2
    for a, b in zip(specs, loaded):
        assert (a.src_idx, a.dst_idx, a.size_bytes, a.start_ns) == (
            b.src_idx, b.dst_idx, b.size_bytes, b.start_ns,
        )
        assert a.tag == b.tag


def test_load_known_format(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("2\n0 1 3 1000 0.000001\n1 0 0 500 0.5\n")
    specs = load_trace(path)
    assert specs[0].start_ns == 1_000
    assert specs[1].start_ns == 500_000_000
    assert specs[0].tag == ("prio", 3)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header comment\n1\n\n0 1 0 100 0\n")
    assert len(load_trace(path)) == 1


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty
        "x\n",  # bad count
        "2\n0 1 0 100 0\n",  # count mismatch
        "1\n0 1 0 100\n",  # missing field
        "1\n0 0 0 100 0\n",  # src == dst
        "1\n0 1 0 0 0\n",  # zero size
        "1\n0 1 0 100 -1\n",  # negative start
        "1\na b c d e\n",  # garbage
    ],
)
def test_load_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_save_priority_of_override(tmp_path):
    specs = [FlowSpec(0, 1, 100, 0)]
    path = tmp_path / "t.txt"
    save_trace(specs, path, priority_of=lambda s: 7)
    assert load_trace(path)[0].tag == ("prio", 7)


# ----------------------------------------------------------------------
# convergence metrics
# ----------------------------------------------------------------------
def test_jain_perfect_and_hog():
    assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
    assert jain_index([4, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([0, 0]) == 1.0
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([-1, 1])


def test_time_to_share():
    series = [(0, 10.0), (10, 40.0), (20, 95.0)]
    assert time_to_share(series, capacity=100, share=0.9) == 20
    assert time_to_share(series, capacity=100, share=0.3, t_from=5) == 10
    assert time_to_share(series, capacity=100, share=0.99) is None
    with pytest.raises(ValueError):
        time_to_share(series, 100, 0)


def test_utilization_aggregates_entities():
    a = [(0, 30.0), (10, 30.0)]
    b = [(0, 50.0), (10, 70.0)]
    assert utilization([a, b], capacity=100) == pytest.approx(0.9)
    assert utilization([], capacity=100) == 0.0
    with pytest.raises(ValueError):
        utilization([a], capacity=0)


def test_stability():
    assert stability([(0, 5.0), (1, 5.0), (2, 5.0)]) == 0.0
    assert stability([(0, 0.0), (1, 0.0)]) == 0.0
    wobbly = stability([(0, 1.0), (1, 9.0)])
    assert wobbly > 0.5
    with pytest.raises(ValueError):
        stability([], 0, 10)


def test_metrics_on_real_prioplus_run():
    """Same-priority PrioPlus flows converge to a fair share."""
    from repro.cc import Swift, SwiftParams
    from repro.core import ChannelConfig, PrioPlusCC, StartTier
    from repro.experiments.samplers import RateSampler
    from repro.sim.engine import Simulator
    from repro.sim.switch import SwitchConfig
    from repro.topology import star
    from repro.transport.flow import Flow
    from repro.transport.sender import FlowSender

    sim = Simulator(2)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 3, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    ch = ChannelConfig(n_priorities=4)
    snds = []
    for i in range(3):
        f = Flow(i + 1, senders[i], recv, 4_000_000, vpriority=2, start_ns=0)
        cc = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), ch, 2,
                        tier=StartTier.MEDIUM, probe_first=False)
        snds.append(FlowSender(sim, net, f, cc))
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.flow_id, interval_ns=200_000)
    sim.run(until=4_000_000)
    allocations = [sampler.average_rate_bps(i + 1, 1_000_000, 4_000_000) for i in range(3)]
    assert jain_index(allocations) > 0.85
    assert utilization([sampler.series[i + 1] for i in range(3)], 10e9, 1_000_000) > 0.85
