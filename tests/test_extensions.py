"""Tests for the §7 / Appendix-B extensions and start strategies."""

import pytest

from repro.cc import Swift, SwiftParams
from repro.core import (
    EXPONENTIAL,
    LINEAR,
    LINE_RATE,
    ChannelConfig,
    EcnPriorityConfig,
    StartRampCC,
    StartTier,
    WeightedPrioPlusCC,
    aggregate_floor_share,
    install_priority_marking,
)
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender

from tests.helpers import FakeSender


# ----------------------------------------------------------------------
# weighted virtual priority
# ----------------------------------------------------------------------
def _weighted(weight, tier=StartTier.MEDIUM):
    cc = WeightedPrioPlusCC(
        Swift(SwiftParams(target_scaling=False)),
        ChannelConfig(n_priorities=8),
        vpriority=2,
        weight=weight,
        tier=tier,
        probe_first=False,
    )
    sender = FakeSender()
    cc.attach(sender)
    return cc, sender


def test_weighted_rejects_bad_weight():
    with pytest.raises(ValueError):
        _weighted(1.0)
    with pytest.raises(ValueError):
        _weighted(-0.1)


def test_weight_zero_degenerates_to_strict():
    cc, sender = _weighted(0.0)
    cc.on_start()
    cc.on_ack(sender.ack(cc.d_limit + 1))
    cc.on_ack(sender.ack(cc.d_limit + 1))
    assert sender.stopped  # strict PrioPlus behaviour
    assert not cc.floor_mode


def test_weighted_enters_floor_instead_of_stopping():
    cc, sender = _weighted(0.25)
    cc.on_start()
    cc.inner.cwnd = 100_000.0
    cc.on_ack(sender.ack(cc.d_limit + 1))
    cc.on_ack(sender.ack(cc.d_limit + 1))
    assert not sender.stopped
    assert cc.floor_mode
    assert cc.inner.cwnd <= 0.25 * sender.bdp_bytes + 1


def test_weighted_resumes_when_contention_ends():
    cc, sender = _weighted(0.25)
    cc.on_start()
    cc.inner.cwnd = 100_000.0
    cc.on_ack(sender.ack(cc.d_limit + 1))
    cc.on_ack(sender.ack(cc.d_limit + 1))
    assert cc.floor_mode
    cc.on_ack(sender.ack(cc.d_target - 1000))
    assert not cc.floor_mode


def test_weighted_floor_holds_while_preempted():
    cc, sender = _weighted(0.1)
    cc.on_start()
    cc.inner.cwnd = 100_000.0
    for _ in range(5):
        cc.on_ack(sender.ack(cc.d_limit + 5_000))
    assert cc.floor_mode
    assert cc.inner.cwnd <= cc._floor_bytes() + 1


def test_aggregate_floor_share():
    assert aggregate_floor_share(0.1, 10, 10.0) == pytest.approx(0.1)
    assert aggregate_floor_share(0.1, 100, 10.0) == pytest.approx(1.0)  # inversion hazard
    with pytest.raises(ValueError):
        aggregate_floor_share(0.1, -1, 10.0)
    with pytest.raises(ValueError):
        aggregate_floor_share(0.1, 1, 0.0)


def test_weighted_end_to_end_keeps_residual_share():
    sim = Simulator(1)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    ch = ChannelConfig(n_priorities=8)
    lo = Flow(1, senders[0], recv, 2_000_000, vpriority=1, start_ns=0)
    hi = Flow(2, senders[1], recv, 1_500_000, vpriority=5, start_ns=150_000)
    s_lo = FlowSender(
        sim, net, lo,
        WeightedPrioPlusCC(Swift(SwiftParams(target_scaling=False)), ch, 1,
                           weight=0.2, tier=StartTier.LOW),
    )
    FlowSender(
        sim, net, hi,
        WeightedPrioPlusCC(Swift(SwiftParams(target_scaling=False)), ch, 5,
                           weight=0.2, tier=StartTier.HIGH),
    )
    # mid-contention checkpoint: the weighted low flow keeps making progress
    sim.run(until=700_000)
    progressed_at_700us = s_lo.acked_payload
    sim.run(until=1_000_000)
    assert s_lo.acked_payload > progressed_at_700us  # non-zero residual share
    sim.run(until=100_000_000)
    assert lo.done and hi.done


# ----------------------------------------------------------------------
# per-priority ECN marking
# ----------------------------------------------------------------------
def test_ecn_threshold_geometry():
    cfg = EcnPriorityConfig(k_top_bytes=80_000, ratio=0.5, n_priorities=8)
    ks = [cfg.threshold(i) for i in range(1, cfg.n_priorities + 1)]
    assert len(ks) == 8
    assert ks[-1] == 80_000  # highest priority gets the full threshold
    for lower, higher in zip(ks, ks[1:]):
        assert lower == pytest.approx(higher / 2)
    with pytest.raises(ValueError):
        cfg.threshold(0)


def test_ecn_config_validation():
    with pytest.raises(ValueError):
        EcnPriorityConfig(k_top_bytes=80_000, ratio=0.0, n_priorities=8)
    with pytest.raises(ValueError):
        EcnPriorityConfig(k_top_bytes=0, ratio=0.5, n_priorities=8)


def test_install_patches_all_switch_ports():
    sim = Simulator(1)
    net, senders, recv = star(sim, 3, switch_cfg=SwitchConfig(n_queues=2))
    n = install_priority_marking(net, EcnPriorityConfig(k_top_bytes=80_000, ratio=0.5, n_priorities=8))
    assert n == len(net.switches[0].ports)
    assert all(p.ecn_marker is not None for p in net.switches[0].ports)
    assert all(p.ecn_k is None for p in net.switches[0].ports)


def test_ecn_extension_orders_dctcp_flows():
    def share(per_priority):
        from repro.experiments.ecn_priority import run_ecn_priority

        return run_ecn_priority(per_priority)

    uniform = share(False)
    prio = share(True)
    # uniform marking: roughly fair; per-priority marking: hi dominates
    assert abs(uniform["hi_share"] - uniform["lo_share"]) < 0.2
    assert prio["hi_share"] > 3 * prio["lo_share"]
    assert prio["utilization"] > 0.85


# ----------------------------------------------------------------------
# start strategies
# ----------------------------------------------------------------------
def test_start_strategy_validation():
    with pytest.raises(ValueError):
        StartRampCC("warp")


def test_start_strategy_initial_windows():
    for strategy, expect in (
        (LINE_RATE, lambda s: s.bdp_bytes),
        (EXPONENTIAL, lambda s: 1000.0),
        (LINEAR, lambda s: s.bdp_bytes / 8),
    ):
        cc = StartRampCC(strategy)
        sender = FakeSender()
        cc.attach(sender)
        assert cc.cwnd == pytest.approx(max(expect(sender), 1000.0))


def test_exponential_doubles_per_rtt():
    cc = StartRampCC(EXPONENTIAL)
    sender = FakeSender()
    cc.attach(sender)
    w0 = cc.cwnd
    sender.next_new_seq += 1
    cc.on_ack(sender.ack(sender.base_rtt))
    assert cc.cwnd == pytest.approx(min(2 * w0, cc.max_cwnd))


def test_ramp_freezes_on_queue_buildup():
    cc = StartRampCC(LINEAR)
    sender = FakeSender()
    cc.attach(sender)
    w = cc.cwnd
    sender.next_new_seq += 1
    cc.on_ack(sender.ack(sender.base_rtt + 10_000))  # visible queue
    assert cc.frozen
    sender.next_new_seq += 5
    cc.on_ack(sender.ack(sender.base_rtt))
    assert cc.cwnd == w  # no further growth
