"""Tests for trace file I/O, and fair convergence of same-priority flows."""

import pytest

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
# convergence on a real run
# ----------------------------------------------------------------------
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
    # Jain's fairness index: 1 = perfectly fair, 1/3 = one flow takes all
    jain = sum(allocations) ** 2 / (len(allocations) * sum(a * a for a in allocations))
    assert jain > 0.85
    # utilisation: the mean aggregate rate over the window, as a share of the link
    aggregate = {}
    for i in range(3):
        for t, rate in sampler.series[i + 1]:
            if t >= 1_000_000:
                aggregate[t] = aggregate.get(t, 0.0) + rate
    assert sum(aggregate.values()) / len(aggregate) / 10e9 > 0.85
