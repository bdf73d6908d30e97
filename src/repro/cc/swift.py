"""Swift congestion control (Kumar et al., SIGCOMM 2020), simplified.

Swift steers the measured RTT toward ``target = base_rtt + base_target``:

* **AI**: when delay < target, ``cwnd += ai_bytes * acked / cwnd`` per ACK
  (≈ ``ai_bytes`` per RTT);
* **MD**: when delay > target, multiplicative decrease proportional to the
  overshoot, ``cwnd *= max(1 - beta*(delay-target)/delay, 1 - max_mdf)``,
  at most once per RTT;
* **flow/target scaling** (optional): the target grows as the window shrinks,
  ``target += clamp(fs_alpha/sqrt(cwnd_pkts) - fs_beta, 0, FS_RANGE_NS)``, which
  accommodates many-flow fan-in — and is exactly the mechanism that breaks
  virtual priority in Figure 3b of the PrioPlus paper.

The per-RTT fluctuation bound of Appendix D
(``n*W_AI/R + max(n*beta*W_AI/(R*T), max_mdf) * T``) is implemented in
:mod:`repro.analysis.theory` and validated against this code.
"""

from __future__ import annotations

import math

from ..transport.flow import AckInfo
from .base import CongestionControl

__all__ = ["Swift", "SwiftParams"]

#: the MD gain and the largest MD factor per RTT (paper §6)
BETA = 0.8
MAX_MDF = 0.5
#: flow scaling adds up to FS_RANGE_NS to the target as the window falls
#: from FS_MAX_CWND_PKTS to FS_MIN_CWND_PKTS packets
FS_RANGE_NS = 50_000
FS_MIN_CWND_PKTS = 0.1
FS_MAX_CWND_PKTS = 100.0
_FS_SQRT_MAX = 1.0 / math.sqrt(FS_MAX_CWND_PKTS)
_FS_ALPHA = FS_RANGE_NS / (1.0 / math.sqrt(FS_MIN_CWND_PKTS) - _FS_SQRT_MAX)
_FS_BETA = _FS_ALPHA * _FS_SQRT_MAX


class SwiftParams:
    """Tuning knobs for :class:`Swift` (defaults follow the paper's §6)."""

    __slots__ = ("base_target_ns", "ai_bytes", "target_scaling")

    def __init__(
        self,
        base_target_ns: int = 20_000,
        ai_bytes: float = 150.0,
        target_scaling: bool = True,
    ):
        self.base_target_ns = base_target_ns
        self.ai_bytes = ai_bytes
        self.target_scaling = target_scaling


class Swift(CongestionControl):
    """Delay-based CC with per-RTT-gated multiplicative decrease."""

    def __init__(self, params: SwiftParams, min_cwnd_bytes: float = None):
        super().__init__(None, min_cwnd_bytes)
        self.params = params
        self.ai_bytes = params.ai_bytes
        self.target_delay_ns = 0  # resolved at attach
        self._last_decrease = -(1 << 62)
        self.decreases = 0
        self.increases = 0

    # ------------------------------------------------------------------
    def configure(self) -> None:
        self.target_delay_ns = self.base_rtt + self.params.base_target_ns

    def set_target_scaling(self, enabled: bool) -> None:
        """PrioPlus integration point: fixed per-priority targets need this off."""
        self.params.target_scaling = enabled

    def current_target_ns(self) -> float:
        target = self.target_delay_ns
        if self.params.target_scaling:
            cwnd_pkts = max(self.cwnd / self.mtu, 1e-6)
            fs = _FS_ALPHA / math.sqrt(cwnd_pkts) - _FS_BETA
            if fs < 0.0:
                fs = 0.0
            elif fs > FS_RANGE_NS:
                fs = FS_RANGE_NS
            target += fs
        return target

    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        target = self.current_target_ns()
        delay = info.delay_ns
        if delay < target:
            if info.acked_bytes > 0:
                denom = max(self.cwnd, self.mtu)
                self.cwnd += self.ai_bytes * info.acked_bytes / denom
                self.increases += 1
        else:
            if info.now - self._last_decrease >= self.last_rtt():
                factor = 1.0 - BETA * (delay - target) / delay
                floor = 1.0 - MAX_MDF
                if factor < floor:
                    factor = floor
                self.cwnd *= factor
                self._last_decrease = info.now
                self.decreases += 1
        self.clamp()

    def last_rtt(self) -> int:
        return self.sender.last_rtt if self.sender is not None else self.base_rtt

    def on_timeout(self) -> None:
        self.cwnd *= 1.0 - MAX_MDF
        self.clamp()
