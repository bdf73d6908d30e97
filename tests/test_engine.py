"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import MICROSECOND, MILLISECOND, SECOND, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.after(30, fired.append, "c")
    sim.after(10, fired.append, "a")
    sim.after(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.at(100, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.at(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.at(10, fired.append, "early")
    sim.at(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    sim.run()
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.at(10, fired.append, "x")
    sim.at(5, handle.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.at(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.after(-1, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.after(10, chain, n + 1)

    sim.after(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h = sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    h.cancel()
    assert sim.peek_time() == 9


def test_run_until_advances_clock_when_idle():
    sim = Simulator()
    sim.run(until=123)
    assert sim.now == 123


def test_time_constants():
    assert SECOND == 1_000_000_000
    assert MILLISECOND == 1_000_000
    assert MICROSECOND == 1_000


def test_rng_is_deterministic_per_seed():
    a = Simulator(seed=5).rng.random()
    b = Simulator(seed=5).rng.random()
    c = Simulator(seed=6).rng.random()
    assert a == b
    assert a != c


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_property_fire_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_property_cancelled_subset_never_fires(times, data):
    sim = Simulator()
    fired = []
    handles = [sim.at(t, lambda t=t: fired.append(t)) for t in times]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(handles) - 1), max_size=len(handles))
    )
    for i in to_cancel:
        handles[i].cancel()
    sim.run()
    expected = sorted(t for i, t in enumerate(times) if i not in to_cancel)
    assert fired == expected


def test_run_until_advances_clock_past_quiet_window():
    """Events beyond the horizon must not stall poll loops (regression)."""
    sim = Simulator()
    sim.at(10_000, lambda: None)
    sim.run(until=1_000)
    assert sim.now == 1_000  # advanced despite the pending later event
    sim.run(until=2_000)
    assert sim.now == 2_000


