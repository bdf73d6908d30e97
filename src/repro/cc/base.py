"""Congestion-control interface.

A CC object owns a congestion window in **payload bytes**.  The sender calls
:meth:`on_ack` for every data ACK, :meth:`on_probe_ack` for probe echoes and
:meth:`on_timeout` on RTO.  ``attach`` binds the CC to its sender and is the
point where rate/RTT-dependent defaults get resolved.

Delay-based CCs that PrioPlus can wrap must additionally expose:

* ``target_delay_ns`` — the absolute RTT the CC steers toward, written
  through :meth:`CongestionControl.pin_target` (a CC that keys its law off
  something else, as LEDBAT does off the queuing delay, overrides it);
* ``ai_bytes`` — the per-RTT additive-increase step, settable;
* a way to disable any target-scaling heuristic (PrioPlus requires a fixed
  per-priority target, paper §4.1).
"""

from __future__ import annotations

from typing import Optional

from ..transport.flow import AckInfo

__all__ = ["CongestionControl"]


class CongestionControl:
    """Base class: fixed window, no reaction (useful on its own as NoCC)."""

    #: set True when the CC consumes in-band telemetry (HPCC)
    needs_int = False

    def __init__(
        self,
        init_cwnd_bytes: Optional[float] = None,
        min_cwnd_bytes: Optional[float] = None,
    ):
        self._init_cwnd = init_cwnd_bytes
        self._min_cwnd_cfg = min_cwnd_bytes
        self.cwnd: float = init_cwnd_bytes if init_cwnd_bytes is not None else 0.0
        self.sender = None
        self.mtu = 0
        self.base_rtt = 0
        self.line_rate_bps = 0.0
        self.bdp_bytes = 0.0
        self.min_cwnd = 0.0
        self.max_cwnd = 0.0

    # ------------------------------------------------------------------
    def attach(self, sender) -> None:
        self.sender = sender
        self.mtu = sender.mtu
        self.base_rtt = sender.base_rtt
        self.line_rate_bps = sender.line_rate_bps
        self.bdp_bytes = sender.bdp_bytes
        self.min_cwnd = self.default_min_cwnd()
        self.max_cwnd = self.default_max_cwnd()
        if self._init_cwnd is None:
            self.cwnd = self.default_init_cwnd()
        self.clamp()
        self.configure()

    def configure(self) -> None:
        """Hook for subclasses to resolve rate/RTT-dependent parameters."""

    def pin_target(self, target_ns: int) -> None:
        """Steer toward the absolute RTT ``target_ns`` (PrioPlus's channel
        target, set once at attach)."""
        self.target_delay_ns = target_ns

    def default_init_cwnd(self) -> float:
        """RDMA-style line-rate start: one BDP (paper §3.3)."""
        return max(self.bdp_bytes, self.mtu)

    def default_min_cwnd(self) -> float:
        if self._min_cwnd_cfg is not None:
            return self._min_cwnd_cfg
        return 0.001 * self.mtu

    def default_max_cwnd(self) -> float:
        return max(8 * self.bdp_bytes, 4 * self.mtu)

    def clamp(self) -> None:
        if self.cwnd < self.min_cwnd:
            self.cwnd = self.min_cwnd
        elif self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the flow's start time arrives."""

    def on_ack(self, info: AckInfo) -> None:
        """React to one data ACK."""

    def on_probe_ack(self, info: AckInfo) -> None:
        """React to a probe echo (PrioPlus); default: treat as plain delay."""

    def on_timeout(self) -> None:
        """RTO fired: default multiplicative backoff."""
        self.cwnd *= 0.5
        self.clamp()

    # ------------------------------------------------------------------
    def fluid_sync(self, cwnd_bytes: float) -> None:
        """Adopt the window a fluid epoch converged to (:mod:`repro.fluid`).

        Called at the fluid→packet handoff with the integrated window so the
        packet-level CC resumes from where the rate balance left the flow
        rather than from its pre-epoch state.
        """
        self.cwnd = cwnd_bytes
        self.clamp()
