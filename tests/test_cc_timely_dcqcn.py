"""Unit + integration tests for DCQCN."""

import pytest

from repro.cc import Dcqcn
from repro.cc.dcqcn import HYPER_AI_FACTOR, RECOVERY_STAGES
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.topology import star
from repro.transport.flow import AckInfo, Flow
from repro.transport.sender import FlowSender

from tests.helpers import FakeSender


# ----------------------------------------------------------------------
# DCQCN
# ----------------------------------------------------------------------
def make_dcqcn():
    cc = Dcqcn()
    cc.attach(FakeSender())
    return cc


def test_dcqcn_cuts_on_marked_interval():
    cc = make_dcqcn()
    sender = cc.sender
    w0 = cc.cwnd
    sender.sim.now += cc.update_interval_ns + 1
    cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, True, 1000, 0))
    assert cc.cwnd < w0
    assert cc.w_target == pytest.approx(w0)


def test_dcqcn_fast_recovery_halves_gap():
    cc = make_dcqcn()
    sender = cc.sender
    sender.sim.now += cc.update_interval_ns + 1
    cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, True, 1000, 0))
    cut = cc.cwnd
    target = cc.w_target
    sender.sim.now += cc.update_interval_ns + 1
    cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, False, 1000, 1))
    assert cc.cwnd == pytest.approx((cut + target) / 2)


def test_dcqcn_alpha_decays_without_marks():
    cc = make_dcqcn()
    a0 = cc.alpha
    sender = cc.sender
    for i in range(4):
        sender.sim.now += cc.update_interval_ns + 1
        cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, False, 1000, i))
    assert cc.alpha < a0


def test_dcqcn_hyper_increase_after_stages():
    cc = make_dcqcn()
    sender = cc.sender
    sender.sim.now += cc.update_interval_ns + 1
    cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, True, 1000, 0))
    targets = []
    for i in range(2 * RECOVERY_STAGES + 2):
        sender.sim.now += cc.update_interval_ns + 1
        cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, False, 1000, i + 1))
        targets.append(cc.w_target)
    # hyper stage grows the target much faster than additive
    assert targets[-1] - targets[-2] == pytest.approx(HYPER_AI_FACTOR * cc.ai_bytes)
    assert targets[-3] - targets[-4] == pytest.approx(cc.ai_bytes)


def test_dcqcn_flow_completes_with_ecn_switch():
    sim = Simulator(2)
    cfg = SwitchConfig(n_queues=2, ecn_k_bytes=30_000)
    net, senders, recv = star(sim, 2, rate_bps=10e9, switch_cfg=cfg)
    f1 = Flow(1, senders[0], recv, 400_000)
    f2 = Flow(2, senders[1], recv, 400_000)
    FlowSender(sim, net, f1, Dcqcn())
    FlowSender(sim, net, f2, Dcqcn())
    sim.run(until=500_000_000)
    assert f1.done and f2.done
