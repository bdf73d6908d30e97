"""Priority Flow Control (IEEE 802.1Qbb) model.

PFC works hop-by-hop: a switch counts, per *(ingress port, priority)*, the
bytes it is currently buffering that arrived through that ingress.  When the
counter exceeds ``xoff`` it sends a PAUSE frame upstream for that priority;
when it drains below ``xon`` it sends a RESUME.  PAUSE/RESUME propagate with
the link's propagation delay and act on the upstream egress port's scheduler.

The ``xoff`` threshold can be static or coupled to the remaining shared
buffer (``dynamic=True``), reflecting real shared-buffer chips where ingress
admission thresholds shrink as the pool fills — this coupling is what makes a
large number of lossless priorities expensive (paper §2.2, Fig. 11).
"""

from __future__ import annotations

from typing import Callable, Tuple

from .buffer import SharedBuffer
from .engine import Simulator

__all__ = ["PfcIngressState", "PfcConfig"]

#: a dynamic XOFF is at most this share of the free shared pool
DYN_ALPHA = 0.5
#: XON sits this far below XOFF
XON_GAP_BYTES = 4096


class PfcConfig:
    """PFC knobs for one switch."""

    __slots__ = ("enabled", "xoff_bytes", "xon_bytes", "dynamic")

    def __init__(self, enabled: bool = True, xoff_bytes: int = 100 * 1024, dynamic: bool = True):
        self.enabled = enabled
        self.xoff_bytes = xoff_bytes
        #: RESUME once the backlog is XON_GAP_BYTES below XOFF
        self.xon_bytes = max(0, xoff_bytes - XON_GAP_BYTES)
        self.dynamic = dynamic


class PfcIngressState:
    """Pause state machine for one (ingress port, priority) pair."""

    __slots__ = (
        "sim",
        "cfg",
        "buffer",
        "bytes",
        "pause_sent",
        "send_signal",
        "pauses_sent",
        "resumes_sent",
        "key",
        "probe",
    )

    def __init__(
        self,
        sim: Simulator,
        cfg: PfcConfig,
        buffer: SharedBuffer,
        send_signal: Callable[[bool], None],
        key: Tuple[str, int, int] = ("", 0, 0),
    ):
        self.sim = sim
        self.cfg = cfg
        self.buffer = buffer
        self.bytes = 0
        self.pause_sent = False
        #: callable(paused: bool) delivering PAUSE/RESUME to the upstream port
        #: (the switch's sender is also where the ``pfc`` probe event fires)
        self.send_signal = send_signal
        self.pauses_sent = 0
        self.resumes_sent = 0
        #: (switch name, ingress index, priority) — identity in probe events
        self.key = key
        self.probe = sim.probe

    def _xoff(self) -> float:
        cfg = self.cfg
        if cfg.dynamic:
            return min(cfg.xoff_bytes, DYN_ALPHA * self.buffer.free_shared)
        return cfg.xoff_bytes

    def on_enqueue(self, size: int) -> None:
        self.bytes += size
        p = self.probe
        if p.on:
            p.pfc_backlog(self.sim.now, self.key, self.bytes)
        cfg = self.cfg
        if not cfg.enabled or self.pause_sent:
            return
        # inline _xoff(): this runs once per lossless enqueue
        xoff = cfg.xoff_bytes
        if cfg.dynamic:
            buf = self.buffer
            dyn = DYN_ALPHA * (buf.shared_capacity - buf.shared_used)
            if dyn < xoff:
                xoff = dyn
        if self.bytes > xoff:
            self.pause_sent = True
            self.pauses_sent += 1
            self.send_signal(True)

    def on_dequeue(self, size: int) -> None:
        self.bytes -= size
        if self.bytes < 0:
            raise AssertionError("PFC ingress accounting went negative")
        p = self.probe
        if p.on:
            p.pfc_backlog(self.sim.now, self.key, self.bytes)
        if self.pause_sent and self.bytes <= min(self.cfg.xon_bytes, self._xoff()):
            self.pause_sent = False
            self.resumes_sent += 1
            self.send_signal(False)
