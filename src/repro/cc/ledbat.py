"""LEDBAT (Rossi et al., 2010): linear delay-proportional controller.

LEDBAT drives the queuing delay toward ``target`` with a proportional
controller::

    off = (target - queuing_delay) / target
    cwnd += off * acked_bytes / cwnd * mtu

It was designed as a background (scavenger) transport — one extra priority
below best-effort — and the paper integrates PrioPlus with it (§4.4, §6.2)
to show the enhancement is not Swift-specific.
"""

from __future__ import annotations

from ..transport.flow import AckInfo
from .base import CongestionControl

__all__ = ["Ledbat"]


class Ledbat(CongestionControl):
    def __init__(self):
        super().__init__()
        #: the queuing-delay target; PrioPlus derives it from its channel
        #: target (:meth:`pin_target`)
        self.target_queuing_ns = 20_000
        self.max_decrease_per_rtt = 0.5
        self.target_delay_ns = 0
        self.ai_bytes = 0.0  # resolved at attach; exposed for PrioPlus
        self._min_cwnd_floor = 0.0

    def configure(self) -> None:
        self.target_delay_ns = self.base_rtt + self.target_queuing_ns
        self.ai_bytes = float(self.mtu)

    def set_target_scaling(self, enabled: bool) -> None:
        """LEDBAT has no target scaling; present for interface parity."""

    def pin_target(self, target_ns: int) -> None:
        # LEDBAT keys its controller off the queuing component
        self.target_delay_ns = target_ns
        self.target_queuing_ns = max(target_ns - self.base_rtt, 1)

    def on_ack(self, info: AckInfo) -> None:
        if info.acked_bytes <= 0:
            return
        queuing = info.delay_ns - self.base_rtt
        off = (self.target_queuing_ns - queuing) / self.target_queuing_ns
        denom = max(self.cwnd, self.mtu)
        if off >= 0:
            # additive regime, scaled by PrioPlus-adjustable ai_bytes
            self.cwnd += off * (self.ai_bytes * info.acked_bytes / denom)
        else:
            delta = off * (self.mtu * info.acked_bytes / denom)
            floor = -self.max_decrease_per_rtt * self.cwnd * (info.acked_bytes / denom)
            if delta < floor:
                delta = floor
            self.cwnd += delta
        self.clamp()

    def on_timeout(self) -> None:
        self.cwnd *= 0.5
        self.clamp()
