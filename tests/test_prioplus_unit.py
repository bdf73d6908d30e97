"""Unit tests for Algorithm 1 (PrioPlusCC) using a fake sender."""

import pytest

from repro.cc.swift import Swift, SwiftParams
from repro.core.channels import ChannelConfig
from repro.core.prioplus import W_LS_FRACTION, PrioPlusCC, StartTier
from repro.transport.flow import AckInfo

from tests.helpers import FakeSender


def make(vprio=2, tier=StartTier.MEDIUM, probe_first=False, **kwargs):
    channels = ChannelConfig(n_priorities=8)
    inner = Swift(SwiftParams(target_scaling=False))
    cc = PrioPlusCC(inner, channels, vpriority=vprio, tier=tier, probe_first=probe_first, **kwargs)
    sender = FakeSender()
    cc.attach(sender)
    return cc, sender


def ack(sender, delay, seq=None, acked=1000):
    return sender.ack(delay, seq=seq, acked=acked)


def test_vpriority_must_be_one_based():
    with pytest.raises(ValueError):
        PrioPlusCC(Swift(SwiftParams()), ChannelConfig(), vpriority=0)


def test_attach_pins_inner_target_and_disables_scaling():
    cc, sender = make(vprio=3)
    assert cc.inner.params.target_scaling is False
    assert cc.inner.target_delay_ns == cc.d_target
    assert cc.d_target == sender.base_rtt + 3 * 4000
    assert cc.d_limit == cc.d_target + 2400


def test_w_ls_by_tier():
    for tier, frac in W_LS_FRACTION.items():
        cc, sender = make(tier=tier)
        assert cc.w_ls == pytest.approx(max(frac * sender.bdp_bytes, cc.inner.mtu))


def test_probe_first_default_by_tier():
    cc_hi, _ = make(tier=StartTier.HIGH, probe_first=None)
    cc_lo, _ = make(tier=StartTier.LOW, probe_first=None)
    assert not cc_hi.probe_first
    assert cc_lo.probe_first


def test_high_tier_starts_with_linear_start():
    cc, sender = make(tier=StartTier.HIGH, probe_first=False)
    cc.on_start()
    assert not sender.stopped
    assert cc.inner.cwnd == pytest.approx(cc.w_ls)


def test_probe_first_start_stops_and_probes():
    cc, sender = make(probe_first=True)
    cc.on_start()
    assert sender.stopped
    assert sender.probe_delays == [0]


# ----------------------------------------------------------------------
# noise filter: two consecutive crossings required (§4.3.1)
# ----------------------------------------------------------------------
def test_single_limit_crossing_is_filtered():
    cc, sender = make()
    cc.on_start()
    cc.on_ack(ack(sender, cc.d_limit + 1))
    assert not sender.stopped
    assert cc.relinquish_count == 0
    # a clean sample resets the counter
    cc.on_ack(ack(sender, cc.d_target))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    assert not sender.stopped


def test_two_consecutive_crossings_relinquish():
    cc, sender = make()
    cc.on_start()
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    assert sender.stopped
    assert cc.relinquish_count == 1
    assert len(sender.probe_delays) == 1


def test_acks_ignored_while_stopped():
    cc, sender = make()
    cc.on_start()
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    stops = sender.stop_calls
    probes = len(sender.probe_delays)
    cc.on_ack(ack(sender, cc.d_limit + 1))
    assert sender.stop_calls == stops
    assert len(sender.probe_delays) == probes


# ----------------------------------------------------------------------
# probe scheduling: collision avoidance window (§4.2.1)
# ----------------------------------------------------------------------
def test_probe_delay_within_collision_avoidance_window():
    cc, sender = make()
    cc.on_start()
    delay = cc.d_limit + 5_000
    cc.on_ack(ack(sender, delay))
    cc.on_ack(ack(sender, delay))
    (probe_wait,) = sender.probe_delays
    lo = delay - cc.d_target
    assert lo <= probe_wait <= lo + sender.base_rtt


def test_probe_ack_still_congested_reschedules():
    cc, sender = make()
    cc.on_start()
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    n = len(sender.probe_delays)
    cc.on_probe_ack(AckInfo(0, cc.d_limit + 500, False, 0, 0, is_probe=True))
    assert sender.stopped
    assert len(sender.probe_delays) == n + 1


def test_probe_ack_empty_path_linear_start_resume():
    cc, sender = make()
    cc.on_start()
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_probe_ack(AckInfo(0, sender.base_rtt, False, 0, 0, is_probe=True))
    assert not sender.stopped
    assert cc.inner.cwnd == pytest.approx(max(cc.w_ls / cc.nflow, cc.inner.min_cwnd))


def test_probe_ack_midrange_resumes_conservatively():
    cc, sender = make()
    cc.on_start()
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    mid = (cc.d_target + sender.base_rtt) // 2
    cc.on_probe_ack(AckInfo(0, mid, False, 0, 0, is_probe=True))
    assert not sender.stopped
    assert cc.inner.cwnd == pytest.approx(cc.inner.mtu)


# ----------------------------------------------------------------------
# cardinality estimation (§4.3.1)
# ----------------------------------------------------------------------
def test_cardinality_estimated_on_relinquish():
    cc, sender = make()
    cc.on_start()
    cc.inner.cwnd = 10_000.0
    delay = cc.d_limit + 20_000
    cc.on_ack(ack(sender, delay))  # filtered; Swift may decrease meanwhile
    cwnd_at_relinquish = cc.inner.cwnd
    cc.on_ack(ack(sender, delay))
    expected = delay * (sender.line_rate_bps / 8e9) / cwnd_at_relinquish
    assert cc.nflow == pytest.approx(expected, rel=0.01)
    # the AI step is shared across the estimated flows
    assert cc.inner.ai_bytes == pytest.approx(cc.w_ai_origin / cc.nflow)


def test_cardinality_is_a_ratchet():
    cc, sender = make()
    cc.on_start()
    cc.inner.cwnd = 10_000.0
    big = cc.d_limit + 50_000
    cc.on_ack(ack(sender, big))
    cc.on_ack(ack(sender, big))
    high_estimate = cc.nflow
    # resume, then relinquish again: the estimate never shrinks (max ratchet)
    cc.on_probe_ack(AckInfo(0, sender.base_rtt, False, 0, 0, is_probe=True))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    cc.on_ack(ack(sender, cc.d_limit + 1))
    assert cc.nflow >= high_estimate


def test_cardinality_disabled_by_ablation_flag():
    cc, sender = make(cardinality_estimation=False)
    cc.on_start()
    cc.inner.cwnd = 100.0
    cc.on_ack(ack(sender, cc.d_limit + 50_000))
    cc.on_ack(ack(sender, cc.d_limit + 50_000))
    assert cc.nflow == 1.0


def test_countdown_halves_cardinality_on_sustained_empty_path():
    cc, sender = make()
    cc.on_start()
    cc.nflow = 8.0
    cc.countdown = 2
    empty = sender.base_rtt
    # each empty-RTT linear-start tick decrements; after zero, halve
    for expected in (1, 0):
        cc.on_ack(ack(sender, empty))
        assert cc.countdown == expected
        sender.next_new_seq += 5  # advance an RTT boundary
    cc.on_ack(ack(sender, empty))
    assert cc.nflow == 4.0


# ----------------------------------------------------------------------
# linear start + dual-RTT adaptive increase (§4.2.2, §4.2.3)
# ----------------------------------------------------------------------
def test_linear_start_grows_w_ls_per_rtt():
    cc, sender = make(tier=StartTier.MEDIUM, probe_first=False)
    cc.on_start()
    w0 = cc.inner.cwnd
    cc.on_ack(ack(sender, sender.base_rtt))
    assert cc.inner.cwnd == pytest.approx(w0 + cc.w_ls / cc.nflow, rel=0.01)
    # same RTT: no second step
    w1 = cc.inner.cwnd
    cc.on_ack(AckInfo(sender.sim.now, sender.base_rtt, False, 1000, 0))
    assert cc.inner.cwnd == pytest.approx(w1 + 150.0 * 1000 / max(w1, 1000), rel=0.5)


def test_adaptive_increase_every_other_rtt():
    cc, sender = make(probe_first=False)
    cc.on_start()
    mid = cc.d_target - 1000  # between base and target
    base_ai = cc.inner.ai_bytes
    # first RTT boundary: dual_rtt_pass flips True -> AI widened
    cc.on_ack(ack(sender, mid))
    widened = cc.inner.ai_bytes
    assert widened > base_ai
    assert cc.adaptive_increases == 1
    # next RTT boundary: dual_rtt_pass flips False -> AI restored, no increase
    sender.next_new_seq += 5
    cc.on_ack(ack(sender, mid))
    assert cc.inner.ai_bytes == pytest.approx(cc.w_ai_origin / cc.nflow)
    assert cc.adaptive_increases == 1
    # third boundary: widened again
    sender.next_new_seq += 5
    cc.on_ack(ack(sender, mid))
    assert cc.adaptive_increases == 2


def test_adaptive_increase_step_capped_at_half_cwnd():
    cc, sender = make(probe_first=False)
    cc.on_start()
    cc.inner.cwnd = 10_000.0
    just_above_base = sender.base_rtt + cc.empty_eps + 1
    cc.on_ack(ack(sender, just_above_base))
    # ratio step would be huge; cap is cwnd/2
    assert cc.inner.ai_bytes <= cc.w_ai_origin / cc.nflow + 5_000.0 + 1


def test_every_rtt_ablation_increases_each_boundary():
    cc, sender = make(probe_first=False, dual_rtt=False)
    cc.on_start()
    mid = cc.d_target - 1000
    for i in range(3):
        cc.on_ack(ack(sender, mid))
        sender.next_new_seq += 5
    assert cc.adaptive_increases == 3


def test_cwnd_property_delegates_to_inner():
    cc, sender = make()
    cc.inner.cwnd = 4321.0
    assert cc.cwnd == 4321.0
    assert cc.min_cwnd == cc.inner.min_cwnd


def test_timeout_delegates():
    cc, sender = make()
    cc.inner.cwnd = 10_000.0
    cc.on_timeout()
    assert cc.inner.cwnd < 10_000.0


# ----------------------------------------------------------------------
# property-based invariants under random delay sequences
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.lists(st.integers(min_value=0, max_value=200_000), min_size=1, max_size=120),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_property_invariants_under_random_delays(extra_delays, vprio):
    """For arbitrary delay samples: cwnd bounded, nflow >= 1, probe-only when
    stopped, thresholds never mutate."""
    cc, sender = make(vprio=vprio, probe_first=False)
    cc.on_start()
    d_target, d_limit = cc.d_target, cc.d_limit
    for extra in extra_delays:
        delay = sender.base_rtt + extra
        if sender.stopped:
            # while relinquished, the flow interacts via probe ACKs only
            cc.on_probe_ack(AckInfo(sender.sim.now, delay, False, 0, 0, is_probe=True))
        else:
            cc.on_ack(sender.ack(delay))
        assert cc.nflow >= 1.0
        assert cc.inner.min_cwnd <= cc.cwnd <= cc.inner.max_cwnd + 1e-6
        assert cc.countdown >= 0
        assert (cc.d_target, cc.d_limit) == (d_target, d_limit)
        if sender.stopped:
            assert sender.probe_delays, "stopped without a probe scheduled"


@given(st.lists(st.booleans(), min_size=4, max_size=60))
@settings(max_examples=40, deadline=None)
def test_property_filter_needs_consecutive_crossings(pattern):
    """A relinquish implies two consecutive over-limit samples occurred."""
    cc, sender = make(probe_first=False)
    cc.on_start()
    prev_over = False
    for over in pattern:
        if sender.stopped:
            break
        delay = cc.d_limit + 1 if over else cc.d_target
        cc.on_ack(sender.ack(delay))
        if sender.stopped:
            assert over and prev_over, "relinquished without two consecutive crossings"
        prev_over = over
