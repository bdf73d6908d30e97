"""DCTCP (Alizadeh et al., SIGCOMM 2010) and D2TCP (Vamanan et al., 2012).

DCTCP maintains an EWMA ``alpha`` of the fraction of ECN-marked packets per
RTT and cuts the window by ``alpha/2`` once per marked RTT.  D2TCP modulates
the cut by deadline urgency: the penalty becomes ``alpha**d`` where
``d = Tc / D`` (time-to-complete over time-to-deadline), clamped to
``[d_min, d_max]`` — urgent flows (d > 1) back off *less*.

Figure 1 / Figure 3a of the PrioPlus paper demonstrate with exactly this
algorithm that single-bit congestion signals cannot deliver strict priority:
both flows receive ECN and both decelerate.
"""

from __future__ import annotations

from ..transport.flow import AckInfo
from .base import CongestionControl

__all__ = ["Dctcp", "D2tcp"]

#: the alpha EWMA gain
G = 1.0 / 16.0
#: D2TCP's clamp on the deadline exponent d
D_MIN = 0.5
D_MAX = 2.0


class Dctcp(CongestionControl):
    """ECN-fraction window control."""

    def __init__(self):
        super().__init__()
        self.ai_bytes = 0.0  # one MTU, resolved at attach
        self.alpha = 0.0
        self._rtt_bytes = 0
        self._rtt_marked = 0
        self._rtt_end = -(1 << 62)

    def configure(self) -> None:
        self.ai_bytes = float(self.mtu)

    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        self._rtt_bytes += info.acked_bytes
        if info.ecn:
            self._rtt_marked += info.acked_bytes
        if info.now >= self._rtt_end:
            self._end_of_rtt(info.now)
        if not info.ecn and info.acked_bytes > 0:
            denom = max(self.cwnd, self.mtu)
            self.cwnd += self.ai_bytes * info.acked_bytes / denom
            self.clamp()

    def _end_of_rtt(self, now: int) -> None:
        if self._rtt_bytes > 0:
            frac = self._rtt_marked / self._rtt_bytes
            self.alpha = (1.0 - G) * self.alpha + G * frac
            if self._rtt_marked > 0:
                self.cwnd *= 1.0 - self.cut_fraction()
                self.clamp()
        self._rtt_bytes = 0
        self._rtt_marked = 0
        self._rtt_end = now + self.rtt_estimate()

    def cut_fraction(self) -> float:
        return self.alpha / 2.0

    def rtt_estimate(self) -> int:
        return self.sender.last_rtt if self.sender is not None else self.base_rtt


class D2tcp(Dctcp):
    """Deadline-aware DCTCP: penalty ``alpha ** d`` with d = Tc/D, D the
    flow's deadline."""

    def urgency(self) -> float:
        """d = Tc / D: how much faster than "on schedule" we must go."""
        sender = self.sender
        deadline = sender.flow.deadline_ns
        if deadline is None:
            return 1.0
        now = sender.sim.now
        remaining_time = deadline - now
        if remaining_time <= 0:
            return D_MAX
        rate = max(self.cwnd, self.min_cwnd) / max(self.rtt_estimate(), 1)
        tc = sender.remaining_bytes / max(rate, 1e-12)
        d = tc / remaining_time
        if d < D_MIN:
            return D_MIN
        if d > D_MAX:
            return D_MAX
        return d

    def cut_fraction(self) -> float:
        if self.alpha <= 0.0:
            return 0.0
        p = self.alpha ** self.urgency()
        return p / 2.0
