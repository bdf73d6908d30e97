"""Unit + property tests for the shared-buffer accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.buffer import SharedBuffer


def test_admission_within_capacity():
    buf = SharedBuffer(10_000)
    assert buf.try_admit_shared(0, 4_000)
    assert buf.shared_used == 4_000
    assert buf.free_shared == 6_000


def test_admission_rejected_when_pool_full():
    buf = SharedBuffer(10_000)
    assert buf.try_admit_shared(0, 10_000)
    assert not buf.try_admit_shared(0, 1)


def test_dynamic_threshold_blocks_long_queue():
    buf = SharedBuffer(10_000)
    assert buf.try_admit_shared(0, 5_000)
    # free = 5k, threshold = 5k: a queue already at 6k may not grow
    assert not buf.try_admit_shared(6_000, 100)
    # but a short queue may
    assert buf.try_admit_shared(1_000, 100)


def test_threshold_shrinks_as_pool_fills():
    buf = SharedBuffer(10_000)
    assert buf.try_admit_shared(0, 8_000)
    # free = 2000 now; a queue at 3000 exceeds the threshold
    assert not buf.try_admit_shared(3_000, 100)


def test_headroom_pool_is_separate():
    buf = SharedBuffer(10_000, headroom_bytes=4_000)
    assert buf.shared_capacity == 6_000
    assert buf.try_admit_headroom(4_000)
    assert not buf.try_admit_headroom(1)
    buf.release(4_000, from_headroom=True)
    assert buf.headroom_used == 0


def test_headroom_larger_than_capacity_rejected():
    with pytest.raises(ValueError):
        SharedBuffer(1_000, headroom_bytes=2_000)


def test_release_shared():
    buf = SharedBuffer(10_000)
    buf.try_admit_shared(0, 5_000)
    buf.release(5_000, from_headroom=False)
    assert buf.shared_used == 0


def test_over_release_raises():
    buf = SharedBuffer(10_000)
    with pytest.raises(AssertionError):
        buf.release(1, from_headroom=False)


def test_stats_counters():
    buf = SharedBuffer(10_000, headroom_bytes=2_000)
    buf.try_admit_shared(0, 1_000)
    buf.try_admit_headroom(500)
    buf.record_drop()
    assert buf.stats.admitted_shared == 1
    assert buf.stats.admitted_headroom == 1
    assert buf.stats.dropped == 1
    assert buf.stats.peak_shared == 1_000
    assert buf.stats.peak_headroom == 500


@given(
    st.lists(
        st.tuples(st.sampled_from(["admit", "release"]), st.integers(1, 2_000)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_accounting_never_negative_or_overflow(ops):
    buf = SharedBuffer(16_000, headroom_bytes=4_000)
    outstanding = []
    for op, size in ops:
        if op == "admit":
            if buf.try_admit_shared(0, size):
                outstanding.append(size)
        elif outstanding:
            buf.release(outstanding.pop(), from_headroom=False)
        assert 0 <= buf.shared_used <= buf.shared_capacity
        assert buf.shared_used == sum(outstanding)
