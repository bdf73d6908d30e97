"""DCQCN (Zhu et al., SIGCOMM 2015), windowed approximation.

DCQCN is the de-facto RDMA/RoCEv2 congestion control: switches ECN-mark,
receivers aggregate marks into CNPs, and the sender keeps two rates —
current (``rc``) and target (``rt``):

* on a marked interval: ``rt = rc``, ``rc *= (1 - alpha/2)``, alpha rises;
* otherwise alpha decays and ``rc`` recovers toward ``rt`` in *fast
  recovery* steps, then additive and finally hyper increase raise ``rt``.

The original is rate-based; here rates map to windows via the base RTT
(the standard windowed approximation used in CC studies).  Included as the
canonical ECN-based RDMA baseline the paper cites [102].
"""

from __future__ import annotations

from ..transport.flow import AckInfo
from .base import CongestionControl

__all__ = ["Dcqcn"]

#: the alpha EWMA gain
G = 1.0 / 16.0
#: fast-recovery steps, then as many additive ones, before hyper increase
RECOVERY_STAGES = 5
#: hyper increase adds this many additive steps per update
HYPER_AI_FACTOR = 5.0


class Dcqcn(CongestionControl):
    #: one rate update per interval (the fluid law reads it too)
    update_interval_ns = 50_000

    def __init__(self):
        super().__init__()
        self.ai_bytes = 0.0  # half an MTU, resolved at attach
        self.alpha = 1.0
        self.w_target = 0.0
        self._stage = 0
        self._marked_in_interval = False
        self._interval_end = -(1 << 62)

    def configure(self) -> None:
        self.ai_bytes = float(self.mtu) / 2
        self.w_target = self.cwnd

    def on_ack(self, info: AckInfo) -> None:
        if info.ecn:
            self._marked_in_interval = True
        if info.now < self._interval_end:
            return
        self._interval_end = info.now + self.update_interval_ns
        if self._marked_in_interval:
            self._cut()
        else:
            self._recover()
        self._marked_in_interval = False
        self.clamp()

    def _cut(self) -> None:
        self.alpha = (1 - G) * self.alpha + G
        self.w_target = self.cwnd
        self.cwnd *= max(1 - self.alpha / 2, 0.5)
        self._stage = 0

    def _recover(self) -> None:
        self.alpha *= 1 - G
        self._stage += 1
        if self._stage <= RECOVERY_STAGES:
            # fast recovery: halve the gap toward the target window
            self.cwnd = (self.cwnd + self.w_target) / 2
        elif self._stage <= 2 * RECOVERY_STAGES:
            self.w_target += self.ai_bytes
            self.cwnd = (self.cwnd + self.w_target) / 2
        else:
            self.w_target += HYPER_AI_FACTOR * self.ai_bytes
            self.cwnd = (self.cwnd + self.w_target) / 2

    def on_timeout(self) -> None:
        self.w_target = self.cwnd
        self.cwnd *= 0.5
        self._stage = 0
        self.clamp()
