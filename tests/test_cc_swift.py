"""Unit tests for Swift (and its role as PrioPlus's inner CC)."""


import pytest

from repro.cc.swift import FS_RANGE_NS, MAX_MDF, Swift, SwiftParams
from repro.transport.flow import AckInfo

from tests.helpers import FakeSender


def attach(params=None, **kwargs) -> Swift:
    cc = Swift(params or SwiftParams(target_scaling=False), **kwargs)
    cc.attach(FakeSender())
    return cc


def test_target_resolved_from_base_rtt():
    cc = attach(SwiftParams(base_target_ns=20_000, target_scaling=False))
    assert cc.target_delay_ns == cc.base_rtt + 20_000


def test_ai_below_target():
    cc = attach()
    sender = cc.sender
    w0 = cc.cwnd
    cc.on_ack(sender.ack(delay_ns=cc.base_rtt))
    assert cc.cwnd > w0


def test_md_above_target_once_per_rtt():
    cc = attach()
    sender = cc.sender
    w0 = cc.cwnd
    high = cc.target_delay_ns + 10_000
    cc.on_ack(sender.ack(high))
    w1 = cc.cwnd
    assert w1 < w0
    # second decrease within the same RTT must not fire
    info = AckInfo(sender.sim.now, high, False, 1000, sender.next_new_seq)
    cc.on_ack(info)
    assert cc.cwnd == w1


def test_md_proportional_to_overshoot_with_floor():
    p = SwiftParams(base_target_ns=10_000, target_scaling=False)
    cc = attach(p)
    sender = cc.sender
    target = cc.target_delay_ns
    w0 = cc.cwnd
    # mild overshoot: decrease by beta*(d-t)/d
    mild = int(target * 1.01)
    cc.on_ack(sender.ack(mild))
    expected = w0 * (1 - 0.8 * (mild - target) / mild)
    assert cc.cwnd == pytest.approx(expected, rel=1e-6)
    # enormous overshoot: floor at 1 - max_mdf
    sender.sim.now += 10 * cc.base_rtt
    w1 = cc.cwnd
    info = AckInfo(sender.sim.now, target * 100, False, 1000, sender.next_new_seq + 5)
    cc.on_ack(info)
    assert cc.cwnd == pytest.approx(w1 * 0.5, rel=1e-6)


def test_cwnd_clamped_to_bounds():
    cc = attach()
    sender = cc.sender
    for _ in range(200):
        sender.sim.now += 10 * cc.base_rtt
        cc.on_ack(AckInfo(sender.sim.now, cc.target_delay_ns * 50, False, 1000, sender.next_new_seq))
        sender.next_new_seq += 1
    assert cc.cwnd == pytest.approx(cc.min_cwnd)
    for _ in range(100000):
        cc.cwnd += 1e9
        cc.clamp()
    assert cc.cwnd == cc.max_cwnd


def test_ai_is_about_ai_bytes_per_rtt():
    cc = attach(SwiftParams(ai_bytes=150.0, target_scaling=False))
    sender = cc.sender
    cc.cwnd = 10_000.0
    w0 = cc.cwnd
    # ack one full window's worth of bytes at low delay
    acked = 0
    while acked < w0:
        cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, False, 1000, sender.next_new_seq))
        acked += 1000
    assert cc.cwnd - w0 == pytest.approx(150.0, rel=0.1)


def test_target_scaling_raises_target_for_small_windows():
    p = SwiftParams(base_target_ns=10_000, target_scaling=True)
    cc = Swift(p)
    cc.attach(FakeSender())
    cc.cwnd = 100_000.0
    t_large = cc.current_target_ns()
    cc.cwnd = 100.0
    t_small = cc.current_target_ns()
    assert t_small > t_large
    assert t_small <= cc.target_delay_ns + FS_RANGE_NS + 1


def test_set_target_scaling_off():
    cc = Swift(SwiftParams(target_scaling=True))
    cc.attach(FakeSender())
    cc.set_target_scaling(False)
    cc.cwnd = 10.0
    assert cc.current_target_ns() == cc.target_delay_ns


def test_timeout_backoff():
    cc = attach()
    w0 = cc.cwnd
    cc.on_timeout()
    assert cc.cwnd == pytest.approx(w0 * (1 - MAX_MDF))


def test_probe_ack_default_noop():
    cc = attach()
    w0 = cc.cwnd
    cc.on_probe_ack(AckInfo(0, cc.base_rtt, False, 0, 0, is_probe=True))
    assert cc.cwnd == w0


def test_min_cwnd_override():
    cc = Swift(SwiftParams(target_scaling=False), min_cwnd_bytes=150.0)
    cc.attach(FakeSender())
    assert cc.min_cwnd == 150.0


def test_fluctuation_bound_matches_theory_inputs():
    """The Appendix D formula evaluates positively and grows with n."""
    from repro.analysis.theory import swift_fluctuation_ns

    f1 = swift_fluctuation_ns(1, 150.0, 100e9, 20_000)
    f150 = swift_fluctuation_ns(150, 150.0, 100e9, 20_000)
    assert f150 > f1 > 0
    # paper §4.3.2: 150 flows fluctuate within ~3.2 us for Swift defaults
    assert f150 < 25_000
