"""Shared test fixtures: fake senders, tiny topologies, quick-run helpers."""

from __future__ import annotations

import random
from typing import List, Optional

from repro.probe import INERT
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.telemetry import CHANNELS
from repro.topology import star
from repro.transport.flow import AckInfo, Flow
from repro.transport.sender import FlowSender


class FakeSim:
    """Minimal stand-in for Simulator in CC unit tests."""

    def __init__(self, seed: int = 0):
        self.now = 0
        self.rng = random.Random(seed)


class FakeSender:
    """Duck-typed FlowSender for exercising CC logic without a network.

    Records stop/resume/probe calls and lets tests advance sequence numbers
    and clock by hand.
    """

    def __init__(
        self,
        mtu: int = 1000,
        base_rtt: int = 12_000,
        line_rate_bps: float = 100e9,
    ):
        self.sim = FakeSim()
        self.probe = INERT
        self.mtu = mtu
        self.base_rtt = base_rtt
        self.line_rate_bps = line_rate_bps
        self.bdp_bytes = line_rate_bps * base_rtt / 8e9
        self.last_rtt = base_rtt
        self.stopped = False
        self.next_new_seq = 0
        self.stop_calls = 0
        self.resume_calls = 0
        self.probe_delays: List[int] = []

    @property
    def snd_nxt(self) -> int:
        return self.next_new_seq

    def stop_sending(self) -> None:
        self.stopped = True
        self.stop_calls += 1

    def resume_sending(self) -> None:
        self.stopped = False
        self.resume_calls += 1

    def send_probe_after(self, delay_ns: int) -> None:
        self.probe_delays.append(delay_ns)

    # test conveniences -------------------------------------------------
    def ack(self, delay_ns: int, seq: Optional[int] = None, acked: int = 1000) -> AckInfo:
        if seq is None:
            seq = self.next_new_seq
            self.next_new_seq += 1
        self.sim.now += self.base_rtt
        self.last_rtt = delay_ns
        return AckInfo(self.sim.now, delay_ns, False, acked, seq)


def tiny_star(n_senders: int = 2, rate_bps: float = 10e9, seed: int = 1, n_queues: int = 4):
    """A small star network plus simulator, for integration tests."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=n_queues, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, n_senders, rate_bps=rate_bps, link_delay_ns=1000, switch_cfg=cfg)
    return sim, net, senders, recv


def live_events(sim: Simulator) -> int:
    """Events still queued in ``sim``'s heap, cancelled ones aside."""
    return sum(1 for entry in sim._heap if len(entry) == 4 or not entry[2].cancelled)


def run_flow(sim, net, flow: Flow, cc, until: int = 200_000_000, **kwargs) -> FlowSender:
    sender = FlowSender(sim, net, flow, cc, **kwargs)
    sim.run(until=until)
    return sender


class ChannelLog:
    """A recorder writer that keeps every channel tuple, for tests to read:
    ``Recorder(log := ChannelLog())``, then ``log.events["pfc"]`` in
    recording order.  ``max_ts`` is the latest run end the recorder reported
    (what ``tests/perfetto_reference.py`` closes open spans at)."""

    def __init__(self):
        self.events = {ch: [] for ch in CHANNELS}
        self.max_ts = 0

    def write(self, ch: str, ev: tuple) -> None:
        self.events[ch].append(ev)

    def end_run(self, t: int) -> None:
        self.max_ts = max(self.max_ts, t)

    def close(self) -> None:
        pass
