"""Unit tests for the PFC pause/resume state machine."""

from repro.sim.buffer import SharedBuffer
from repro.sim.engine import Simulator
from repro.sim.pfc import XON_GAP_BYTES, PfcConfig, PfcIngressState


def make_state(xoff=1000, dynamic=False, shared=100_000):
    sim = Simulator()
    buf = SharedBuffer(shared)
    signals = []
    cfg = PfcConfig(enabled=True, xoff_bytes=xoff, dynamic=dynamic)
    state = PfcIngressState(sim, cfg, buf, signals.append)
    return state, signals, buf


def test_pause_sent_above_xoff():
    state, signals, _ = make_state(xoff=1000)
    state.on_enqueue(900)
    assert signals == []
    state.on_enqueue(200)
    assert signals == [True]
    assert state.pauses_sent == 1


def test_pause_not_repeated_while_paused():
    state, signals, _ = make_state(xoff=1000)
    state.on_enqueue(2000)
    state.on_enqueue(2000)
    assert signals == [True]


def test_resume_below_xon():
    state, signals, _ = make_state(xoff=XON_GAP_BYTES + 1000)  # xon = 1000
    state.on_enqueue(XON_GAP_BYTES + 1200)
    assert signals == [True]
    state.on_dequeue(XON_GAP_BYTES)  # 1200 left > 1000: still paused
    assert signals == [True]
    state.on_dequeue(200)  # 1000 <= 1000: resume
    assert signals == [True, False]
    assert state.resumes_sent == 1


def test_default_xon_close_below_xoff():
    cfg = PfcConfig(xoff_bytes=100_000)
    assert cfg.xon_bytes == 100_000 - XON_GAP_BYTES


def test_dynamic_threshold_tracks_free_shared():
    state, signals, buf = make_state(xoff=50_000, dynamic=True, shared=20_000)
    # dyn threshold = min(50k, 0.5 * free) = 10k initially
    buf.try_admit_shared(0, 16_000)  # free drops to 4k -> threshold 2k
    state.on_enqueue(3_000)
    assert signals == [True]


def test_disabled_pfc_never_signals():
    sim = Simulator()
    buf = SharedBuffer(100_000)
    signals = []
    state = PfcIngressState(sim, PfcConfig(enabled=False), buf, signals.append)
    state.on_enqueue(10**9)
    assert signals == []


def test_negative_accounting_raises():
    state, _, _ = make_state()
    state.on_enqueue(100)
    try:
        state.on_dequeue(200)
    except AssertionError:
        return
    raise AssertionError("expected negative accounting to raise")


def test_pause_resume_cycles():
    state, signals, _ = make_state(xoff=1000)
    for _ in range(3):
        state.on_enqueue(1200)
        state.on_dequeue(1200)
    assert signals == [True, False] * 3
