"""PowerTCP unit + integration tests."""

import pytest

from repro.cc import PowerTcp
from repro.sim.packet import IntHop
from repro.transport.flow import AckInfo

from tests.helpers import FakeSender


def make(**kw):
    cc = PowerTcp(**kw)
    cc.attach(FakeSender())
    return cc


def hop(qlen=0, tx=0, ts=0, rate=100e9):
    return IntHop(qlen, tx, ts, rate)


def test_gamma_validated():
    with pytest.raises(ValueError):
        PowerTcp(gamma=0)
    with pytest.raises(ValueError):
        PowerTcp(gamma=1.5)


def test_power_shrinks_window_on_growing_queue():
    cc = make()
    w0 = cc.cwnd
    cc.on_ack(AckInfo(0, cc.base_rtt, False, 1000, 0, int_hops=[hop(qlen=0, tx=0, ts=0)]))
    # queue grew fast and link transmitted at line rate: power >> 1
    cc.on_ack(AckInfo(24_000, cc.base_rtt, False, 1000, 1,
                      int_hops=[hop(qlen=500_000, tx=300_000, ts=24_000)]))
    assert cc.cwnd < w0
    assert cc.last_power > 1.0


def test_idle_path_grows_additively():
    cc = make()
    cc.cwnd = 10_000.0
    w0 = cc.cwnd
    cc.on_ack(AckInfo(0, cc.base_rtt, False, 1000, 0, int_hops=[hop(ts=0)]))
    cc.on_ack(AckInfo(24_000, cc.base_rtt, False, 1000, 1, int_hops=[hop(ts=24_000)]))
    assert cc.cwnd > w0


def test_no_int_no_reaction():
    cc = make()
    w0 = cc.cwnd
    cc.on_ack(AckInfo(0, cc.base_rtt, False, 1000, 0, int_hops=None))
    assert cc.cwnd == w0


def test_mode_integration():
    from repro.experiments.modes import Mode
    from repro.experiments.flowsched import FlowSchedConfig, run_flowsched

    cfg = FlowSchedConfig(rate_bps=25e9, duration_ns=120_000, size_scale=0.05, seed=9)
    r = run_flowsched(Mode.POWERTCP, 4, cfg)
    assert r["all_done"]
