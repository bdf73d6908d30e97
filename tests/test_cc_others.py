"""Unit tests for DCTCP, D2TCP, LEDBAT, HPCC and NoCC."""

import pytest

from repro.cc.base import CongestionControl
from repro.cc.dctcp import D_MAX, G, D2tcp, Dctcp
from repro.cc.hpcc import Hpcc
from repro.cc.ledbat import Ledbat
from repro.cc.nocc import NoCC
from repro.sim.packet import IntHop
from repro.transport.flow import AckInfo

from tests.helpers import FakeSender


# ----------------------------------------------------------------------
# DCTCP
# ----------------------------------------------------------------------
def make_dctcp():
    cc = Dctcp()
    cc.attach(FakeSender())
    return cc


def feed_rtt(cc, marked_fraction: float, n: int = 10):
    sender = cc.sender
    marked = int(n * marked_fraction)
    for i in range(n):
        cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, i < marked, 1000, sender.next_new_seq))
        sender.next_new_seq += 1
    sender.sim.now += 2 * cc.base_rtt  # close the RTT window
    cc.on_ack(AckInfo(sender.sim.now, cc.base_rtt, False, 1000, sender.next_new_seq))


def test_dctcp_alpha_tracks_mark_fraction():
    cc = make_dctcp()
    feed_rtt(cc, 1.0)
    # the first ack closes a one-ack RTT (all marked), the closing ack one
    # of ten with nine marked
    assert cc.alpha == pytest.approx((1 - G) * G + G * 0.9)
    a1 = cc.alpha
    feed_rtt(cc, 0.0)
    assert cc.alpha < a1  # EWMA decays without marks


def test_dctcp_cuts_window_on_marked_rtt():
    cc = make_dctcp()
    w0 = cc.cwnd
    feed_rtt(cc, 1.0)
    feed_rtt(cc, 1.0)
    assert cc.cwnd < w0


def test_dctcp_grows_without_marks():
    cc = make_dctcp()
    w0 = cc.cwnd
    feed_rtt(cc, 0.0)
    assert cc.cwnd > w0


def test_dctcp_full_marking_halves():
    cc = make_dctcp()
    cc.alpha = 1.0  # a fully marked RTT keeps it there
    feed_rtt(cc, 1.0)
    w = cc.cwnd
    feed_rtt(cc, 1.0)
    # alpha = 1 -> cut 50% (plus small AI from unmarked closing ack)
    assert cc.cwnd == pytest.approx(w / 2, rel=0.15)


# ----------------------------------------------------------------------
# D2TCP
# ----------------------------------------------------------------------
class _FlowStub:
    def __init__(self, deadline_ns):
        self.deadline_ns = deadline_ns


class _D2Sender(FakeSender):
    def __init__(self, remaining=100_000, deadline_ns=None, **kw):
        super().__init__(**kw)
        self.remaining_bytes = remaining
        self.flow = _FlowStub(deadline_ns)


def test_d2tcp_urgency_clamps():
    cc = D2tcp()
    cc.attach(_D2Sender(deadline_ns=1))
    cc.sender.sim.now = 100  # deadline passed
    assert cc.urgency() == D_MAX


def test_d2tcp_urgent_cuts_less():
    """Near-deadline (d>1) penalty is smaller than far-deadline (d<1)."""
    urgent = D2tcp()
    urgent.attach(_D2Sender(remaining=10_000_000, deadline_ns=10_000))  # almost no time left
    relaxed = D2tcp()
    relaxed.attach(_D2Sender(remaining=1_000, deadline_ns=10_000_000_000))  # all the time in the world
    urgent.alpha = relaxed.alpha = 0.5
    assert urgent.cut_fraction() < relaxed.cut_fraction()


def test_d2tcp_without_deadline_behaves_like_dctcp():
    cc = D2tcp()
    cc.attach(_D2Sender())
    cc.alpha = 0.5
    assert cc.urgency() == 1.0
    assert cc.cut_fraction() == pytest.approx(0.25)


# ----------------------------------------------------------------------
# LEDBAT
# ----------------------------------------------------------------------
def test_ledbat_grows_below_target_shrinks_above():
    cc = Ledbat()
    cc.target_queuing_ns = 20_000
    cc.attach(FakeSender())
    w0 = cc.cwnd
    cc.on_ack(AckInfo(0, cc.base_rtt + 1_000, False, 1000, 0))
    assert cc.cwnd > w0
    w1 = cc.cwnd
    cc.on_ack(AckInfo(0, cc.base_rtt + 100_000, False, 1000, 1))
    assert cc.cwnd < w1


def test_ledbat_decrease_bounded_per_ack():
    cc = Ledbat()
    cc.target_queuing_ns = 10_000
    cc.max_decrease_per_rtt = 0.5
    cc.attach(FakeSender())
    cc.cwnd = 10_000.0
    cc.on_ack(AckInfo(0, cc.base_rtt + 10_000_000, False, 1000, 0))
    # one ack of 1000B may remove at most 0.5 * cwnd * (1000/cwnd) bytes... bounded
    assert cc.cwnd >= 10_000.0 * 0.95 - 500


def test_ledbat_target_delay_property():
    cc = Ledbat()
    cc.target_queuing_ns = 7_000
    cc.attach(FakeSender(base_rtt=10_000))
    assert cc.target_delay_ns == 17_000


# ----------------------------------------------------------------------
# HPCC
# ----------------------------------------------------------------------
def hop(qlen=0, tx=0, ts=0, rate=100e9):
    return IntHop(qlen, tx, ts, rate)


def test_hpcc_shrinks_under_high_utilisation():
    cc = Hpcc()
    cc.attach(FakeSender())
    sender = cc.sender
    w0 = cc.cwnd
    # back-to-back INT showing a full link: tx advances at line rate + queue
    cc.on_ack(AckInfo(0, cc.base_rtt, False, 1000, 0, int_hops=[hop(qlen=500_000, tx=0, ts=0)]))
    sender.sim.now += cc.base_rtt * 2
    cc.on_ack(
        AckInfo(
            sender.sim.now,
            cc.base_rtt,
            False,
            1000,
            1,
            int_hops=[hop(qlen=500_000, tx=300_000, ts=24_000)],
        )
    )
    assert cc.cwnd < w0


def test_hpcc_grows_when_idle():
    cc = Hpcc()
    cc.attach(FakeSender())
    sender = cc.sender
    cc.cwnd = cc.w_ref = 10_000.0
    last = cc.cwnd
    for i in range(3):
        sender.sim.now += 2 * cc.base_rtt
        cc.on_ack(
            AckInfo(sender.sim.now, cc.base_rtt, False, 1000, i, int_hops=[hop(tx=i * 100, ts=sender.sim.now)])
        )
    assert cc.cwnd > last


def test_hpcc_needs_int_flag():
    assert Hpcc.needs_int
    assert not Dctcp.needs_int


def test_hpcc_ignores_ack_without_int():
    cc = Hpcc()
    cc.attach(FakeSender())
    w0 = cc.cwnd
    cc.on_ack(AckInfo(0, cc.base_rtt, False, 1000, 0, int_hops=None))
    assert cc.cwnd == w0


# ----------------------------------------------------------------------
# NoCC / base
# ----------------------------------------------------------------------
def test_nocc_window_far_above_bdp():
    cc = NoCC()
    sender = FakeSender()
    cc.attach(sender)
    assert cc.cwnd >= 50 * sender.bdp_bytes
    w = cc.cwnd
    cc.on_timeout()
    assert cc.cwnd == w  # no backoff, that's the point


def test_base_default_init_is_bdp():
    cc = CongestionControl()
    sender = FakeSender()
    cc.attach(sender)
    assert cc.cwnd == pytest.approx(max(sender.bdp_bytes, 1000))
